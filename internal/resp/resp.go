// Package resp implements the RESP-lite wire protocol the stmkv
// server speaks: the subset of Redis's RESP2 needed for a command
// stream — inline commands and array-of-bulk-strings frames inbound;
// simple strings, errors, integers, bulk strings, nulls and arrays
// outbound.
//
// The reader is written against hostile input: every frame is bounded
// (line length, bulk length, array arity) before any allocation sized
// from the wire, truncated frames surface io.ErrUnexpectedEOF, and no
// input can panic the parser — the protocol-fuzz suite pins that
// contract. Limit violations and malformed frames return *ProtoError,
// which a server can report to the client before closing; everything
// else is a transport error.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Wire limits. Generous for a benchmark workload, small enough that a
// hostile frame cannot balloon memory: a declared bulk or array length
// is checked against these before any buffer is sized from it.
const (
	// MaxInline bounds one inline command line (bytes before CRLF).
	MaxInline = 64 * 1024
	// MaxBulk bounds one bulk string's declared length.
	MaxBulk = 1 << 20
	// MaxArity bounds one command array's declared element count.
	MaxArity = 1024
	// MaxFrame bounds one command's total payload bytes across all its
	// bulk strings: without it the per-field limits compose to
	// MaxArity×MaxBulk (a gibibyte) of heap per in-flight frame, which
	// a handful of hostile connections could turn into an OOM.
	MaxFrame = 8 << 20
)

// ProtoError is a protocol violation by the peer: malformed frame,
// limit overflow, wrong type marker. The text is safe to send back as
// an error reply before closing the connection.
type ProtoError struct {
	msg string
}

func (e *ProtoError) Error() string { return "resp: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtoError{msg: fmt.Sprintf(format, args...)}
}

// IsProtoError reports whether err is a protocol violation (as opposed
// to a transport failure), so servers can send a final -ERR reply.
func IsProtoError(err error) bool {
	var pe *ProtoError
	return errors.As(err, &pe)
}

// Reader decodes a client's command stream.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r for command decoding. The buffer is sized to
// MaxInline so ReadSlice's buffer-full condition coincides with the
// inline limit.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxInline+2)}
}

// ReadCommand reads one command: either an array of bulk strings
// ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") or an inline line ("GET k\r\n",
// space-separated, the hand-telnet form). Empty inline lines are
// skipped, matching Redis. io.EOF is returned only on a clean
// connection close (no partial frame consumed); a frame cut short
// yields io.ErrUnexpectedEOF.
func (r *Reader) ReadCommand() ([]string, error) {
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, err // io.EOF: clean close between commands
		}
		if first == '*' {
			return r.readArray()
		}
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		args, err := r.readInline()
		if err != nil {
			return nil, err
		}
		if len(args) == 0 {
			continue // bare CRLF keepalive
		}
		return args, nil
	}
}

// readLine reads up to CRLF (or a bare LF, accepted leniently),
// bounded by MaxInline, returning the line without its terminator.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, protoErrf("line exceeds %d bytes", MaxInline)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1] // strip \n
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) > MaxInline {
		return nil, protoErrf("line exceeds %d bytes", MaxInline)
	}
	return line, nil
}

// readInline splits one inline command line on spaces. Quoting is not
// supported — this is the telnet/debug form, not a full shell lexer.
func (r *Reader) readInline() ([]string, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(line)
	if len(fields) > MaxArity {
		return nil, protoErrf("inline command exceeds %d arguments", MaxArity)
	}
	args := make([]string, len(fields))
	for i, f := range fields {
		args[i] = string(f)
	}
	return args, nil
}

// readArray reads the body of an array frame (the '*' marker already
// consumed): a decimal arity line, then that many bulk strings.
func (r *Reader) readArray() ([]string, error) {
	n, err := r.readInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArity {
		return nil, protoErrf("array arity %d out of range [0,%d]", n, MaxArity)
	}
	args := make([]string, 0, n)
	total := int64(0)
	for i := int64(0); i < n; i++ {
		s, err := r.readBulk()
		if err != nil {
			return nil, err
		}
		if total += int64(len(s)); total > MaxFrame {
			return nil, protoErrf("frame payload exceeds %d bytes", MaxFrame)
		}
		args = append(args, s)
	}
	return args, nil
}

// readInt parses the rest of a header line as a decimal integer.
func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("bad length %q", line)
	}
	return n, nil
}

// readBulk reads one "$<len>\r\n<len bytes>\r\n" bulk string.
func (r *Reader) readBulk() (string, error) {
	marker, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	if marker != '$' {
		return "", protoErrf("expected bulk string, got %q", marker)
	}
	n, err := r.readInt()
	if err != nil {
		return "", err
	}
	if n < 0 || n > MaxBulk {
		return "", protoErrf("bulk length %d out of range [0,%d]", n, MaxBulk)
	}
	return r.readBulkBody(int(n))
}

// readBulkBody reads a bulk string's n payload bytes and their CRLF
// terminator, the length line already parsed and bounded. A payload
// that fits the buffer is checked in place and copied once, into the
// returned string; a larger one goes through a scratch buffer.
func (r *Reader) readBulkBody(n int) (string, error) {
	var buf []byte
	var err error
	inPlace := n+2 <= r.br.Size()
	if inPlace {
		buf, err = r.br.Peek(n + 2)
	} else {
		buf = make([]byte, n+2)
		_, err = io.ReadFull(r.br, buf)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return "", protoErrf("bulk string missing CRLF terminator")
	}
	s := string(buf[:n])
	if inPlace {
		_, _ = r.br.Discard(n + 2) // cannot fail: Peek returned these bytes
	}
	return s, nil
}

// Writer encodes server replies. Methods buffer, so a server can
// encode a whole batch of pipelined replies and Flush them in one
// write; it must Flush before it blocks waiting for more input (or on
// anything else a client could be waiting behind). The first write
// error sticks and is reported by Flush, so reply sequences need only
// one check.
type Writer struct {
	bw  *bufio.Writer
	err error
	// num is the scratch a header line (prefix, decimal, CRLF) is
	// formatted in, so framing a reply allocates nothing.
	num [24]byte
}

// NewWriter wraps w for reply encoding.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

func (w *Writer) writeString(s string) {
	if w.err == nil {
		_, w.err = w.bw.WriteString(s)
	}
}

// line writes prefix, s and CRLF.
func (w *Writer) line(prefix byte, s string) {
	if w.err == nil {
		w.err = w.bw.WriteByte(prefix)
	}
	w.writeString(s)
	w.writeString("\r\n")
}

// header writes prefix, n in decimal and CRLF.
func (w *Writer) header(prefix byte, n int64) {
	if w.err == nil {
		b := strconv.AppendInt(append(w.num[:0], prefix), n, 10)
		_, w.err = w.bw.Write(append(b, '\r', '\n'))
	}
}

// Simple writes a simple-string reply: +s.
func (w *Writer) Simple(s string) { w.line('+', s) }

// Error writes an error reply: -msg.
func (w *Writer) Error(msg string) { w.line('-', msg) }

// Int writes an integer reply: :n.
func (w *Writer) Int(n int64) { w.header(':', n) }

// Bulk writes a bulk-string reply: $len/payload. The payload is
// written as-is (no concatenation): a GET-heavy workload must not pay
// an extra copy of up to MaxBulk per reply.
func (w *Writer) Bulk(s string) {
	w.header('$', int64(len(s)))
	w.writeString(s)
	w.writeString("\r\n")
}

// Null writes the null bulk reply ($-1), Redis's "no such key".
func (w *Writer) Null() { w.writeString("$-1\r\n") }

// Array writes an array header for n elements; the caller then writes
// the n replies.
func (w *Writer) Array(n int) { w.header('*', int64(n)) }

// Flush drains the buffer and reports the first error of the batch.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

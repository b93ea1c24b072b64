package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadCommandForms pins the accepted grammar: array frames, inline
// commands, blank-line keepalives, and multi-command pipelines.
func TestReadCommandForms(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n", [][]string{{"GET", "k"}}},
		{"*1\r\n$4\r\nPING\r\n", [][]string{{"PING"}}},
		{"*0\r\n", [][]string{{}}},
		{"GET k\r\n", [][]string{{"GET", "k"}}},
		{"GET k\n", [][]string{{"GET", "k"}}}, // bare LF, lenient
		{"  SET   a   b  \r\n", [][]string{{"SET", "a", "b"}}},
		{"\r\n\r\nPING\r\n", [][]string{{"PING"}}}, // keepalives skipped
		{"*2\r\n$3\r\nSET\r\n$0\r\n\r\n", [][]string{{"SET", ""}}},
		{
			"*2\r\n$4\r\nINCR\r\n$1\r\nn\r\nPING\r\n*1\r\n$4\r\nPING\r\n",
			[][]string{{"INCR", "n"}, {"PING"}, {"PING"}},
		},
		{"*2\r\n$3\r\nGET\r\n$11\r\nwith\r\nbytes\r\n", [][]string{{"GET", "with\r\nbytes"}}},
	}
	for _, tc := range cases {
		r := NewReader(strings.NewReader(tc.in))
		for i, want := range tc.want {
			got, err := r.ReadCommand()
			if err != nil {
				t.Fatalf("input %q command %d: %v", tc.in, i, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("input %q command %d = %v, want %v", tc.in, i, got, want)
			}
		}
		if _, err := r.ReadCommand(); err != io.EOF {
			t.Fatalf("input %q: trailing read = %v, want io.EOF", tc.in, err)
		}
	}
}

// TestReadCommandMalformed pins the rejection contract: garbage,
// overflows and type confusion yield ProtoError; frames cut short
// yield io.ErrUnexpectedEOF; none of them panic.
func TestReadCommandMalformed(t *testing.T) {
	proto := []string{
		"*notanumber\r\n",
		"*-1\r\n",
		fmt.Sprintf("*%d\r\n", MaxArity+1),
		"*1\r\nPING\r\n",      // array element without '$'
		"*1\r\n$-1\r\n",       // negative bulk length
		"*1\r\n$99999999\r\n", // bulk over MaxBulk
		"*1\r\n$x\r\n",        // non-numeric bulk length
		"*1\r\n$3\r\nabcXY",   // missing CRLF after payload
		"*1\r\n$2\r\nab\rZPG", // mangled terminator
	}
	for _, in := range proto {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if !IsProtoError(err) {
			t.Fatalf("input %q: err = %v, want ProtoError", in, err)
		}
	}
	truncated := []string{
		"*2\r\n$3\r\nGET\r\n",
		"*1\r\n$3\r\nab",
		"*1\r\n$3",
		"*1\r\n",
		"*2",
		"GET k", // inline without newline
	}
	for _, in := range truncated {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("input %q: err = %v, want io.ErrUnexpectedEOF", in, err)
		}
	}
}

// TestReadCommandOversized pins the limits: an inline line or a
// declared bulk/arity just inside the bound parses, just outside is a
// ProtoError before any oversized allocation.
func TestReadCommandOversized(t *testing.T) {
	// Inline at the limit parses (the line is MaxInline bytes before CRLF).
	long := strings.Repeat("a", MaxInline-4) // "GET " + payload
	r := NewReader(strings.NewReader("GET " + long + "\r\n"))
	if args, err := r.ReadCommand(); err != nil || len(args) != 2 || len(args[1]) != len(long) {
		t.Fatalf("inline at limit: %d args, err %v", len(args), err)
	}
	// One byte past the limit is rejected.
	r = NewReader(strings.NewReader("GET " + long + "ab\r\n"))
	if _, err := r.ReadCommand(); !IsProtoError(err) {
		t.Fatalf("inline past limit: err = %v, want ProtoError", err)
	}
	// Bulk at the limit parses.
	payload := strings.Repeat("b", MaxBulk)
	frame := fmt.Sprintf("*2\r\n$3\r\nSET\r\n$%d\r\n%s\r\n", MaxBulk, payload)
	r = NewReader(strings.NewReader(frame))
	if args, err := r.ReadCommand(); err != nil || len(args[1]) != MaxBulk {
		t.Fatalf("bulk at limit: err %v", err)
	}
	// Declared length past the limit is rejected without reading the body.
	r = NewReader(strings.NewReader(fmt.Sprintf("*1\r\n$%d\r\n", MaxBulk+1)))
	if _, err := r.ReadCommand(); !IsProtoError(err) {
		t.Fatalf("bulk past limit: err = %v, want ProtoError", err)
	}
}

// TestBulkPaths covers both ways a bulk payload is read, for commands
// and replies alike: checked in place when it fits the reader's
// buffer, read into a scratch buffer when it does not (100 KiB). Each
// runs over a one-byte-per-read source too, so payloads straddle reads.
func TestBulkPaths(t *testing.T) {
	for _, n := range []int{3, 100 << 10} {
		payload := strings.Repeat("p", n)
		body := fmt.Sprintf("$%d\r\n%s", n, payload)
		for _, oneByte := range []bool{false, true} {
			reader := func(in string) *Reader {
				var src io.Reader = strings.NewReader(in)
				if oneByte {
					src = iotest.OneByteReader(src)
				}
				return NewReader(src)
			}
			what := fmt.Sprintf("%d-byte bulk (one byte per read: %v)", n, oneByte)
			args, err := reader("*1\r\n" + body + "\r\n").ReadCommand()
			if err != nil || len(args) != 1 || args[0] != payload {
				t.Fatalf("%s command: %d args, err %v", what, len(args), err)
			}
			v, err := reader(body + "\r\n").ReadReply()
			if err != nil || v.Kind != '$' || v.Str != payload {
				t.Fatalf("%s reply: kind %q, %d bytes, err %v", what, v.Kind, len(v.Str), err)
			}
			if _, err := reader("*1\r\n" + body + "XY").ReadCommand(); !IsProtoError(err) {
				t.Fatalf("%s command missing CRLF: err = %v, want ProtoError", what, err)
			}
			if _, err := reader(body + "XY").ReadReply(); !IsProtoError(err) {
				t.Fatalf("%s reply missing CRLF: err = %v, want ProtoError", what, err)
			}
			if _, err := reader("*1\r\n" + body).ReadCommand(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s command cut before CRLF: err = %v, want io.ErrUnexpectedEOF", what, err)
			}
			if _, err := reader(body).ReadReply(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s reply cut before CRLF: err = %v, want io.ErrUnexpectedEOF", what, err)
			}
		}
	}
}

// TestWriterReplies pins the outbound encoding byte for byte.
func TestWriterReplies(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Simple("OK")
	w.Error("ERR boom")
	w.Int(-42)
	w.Bulk("hello")
	w.Bulk("")
	w.Null()
	w.Array(2)
	w.Int(1)
	w.Null()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR boom\r\n:-42\r\n$5\r\nhello\r\n$0\r\n\r\n$-1\r\n*2\r\n:1\r\n$-1\r\n"
	if got := buf.String(); got != want {
		t.Fatalf("encoded %q, want %q", got, want)
	}
}

// TestWriterZeroAlloc: framing a reply allocates nothing on a warm
// writer, whatever the payload or integer.
func TestWriterZeroAlloc(t *testing.T) {
	w := NewWriter(io.Discard)
	payload := strings.Repeat("v", 100)
	cases := []struct {
		name  string
		write func()
	}{
		{"Simple", func() { w.Simple("OK") }},
		{"Error", func() { w.Error("ERR wrong number of arguments for 'get' command") }},
		{"Int", func() { w.Int(-1 << 62) }},
		{"Bulk", func() { w.Bulk(payload) }},
		{"Null", func() { w.Null() }},
		{"Array", func() { w.Array(12345) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(1000, c.write); n != 0 {
			t.Errorf("%s: %.1f allocs per reply, want 0", c.name, n)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails after n bytes, for the sticky-error contract.
type errWriter struct {
	n int
}

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("sink full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriterSticky: the first transport error is retained and reported
// by Flush; later writes are no-ops rather than panics.
func TestWriterSticky(t *testing.T) {
	w := NewWriter(&errWriter{n: 4})
	for i := 0; i < 1000; i++ {
		w.Bulk(strings.Repeat("x", 64))
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush after sink failure = nil, want error")
	}
}

// FuzzReadCommand is the protocol-fuzz contract: arbitrary bytes never
// panic the reader, and every returned command is within the declared
// limits. The seed corpus covers each frame family and each rejection
// path.
func FuzzReadCommand(f *testing.F) {
	seeds := []string{
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n",
		"GET k\r\n",
		"PING\r\n",
		"*0\r\n",
		"*1\r\n$4\r\nPING\r\n",
		"*-1\r\n",
		"*99999\r\n",
		"*1\r\n$-5\r\n",
		"*1\r\n$99999999\r\n",
		"*1\r\n$3\r\nab",
		"\r\n",
		"$5\r\nhello\r\n",
		":12\r\n",
		"*2\r\n$3\r\nGET\r\njunk",
		strings.Repeat("a", 9000),
		"*1\r\n$0\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded: a stream yields many commands
			args, err := r.ReadCommand()
			if err != nil {
				if !IsProtoError(err) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(args) > MaxArity {
				t.Fatalf("command with %d args exceeds MaxArity", len(args))
			}
			for _, a := range args {
				if len(a) > MaxBulk {
					t.Fatalf("argument of %d bytes exceeds MaxBulk", len(a))
				}
			}
		}
	})
}

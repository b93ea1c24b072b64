package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// reply is one decoded server reply. Arrays are one level deep, which
// is all the benchmark's commands produce. Every buffer is reused by
// the next read, so a connection decodes without allocating once warm.
type reply struct {
	kind  byte // '+', '-', ':', '$' or '*'
	null  bool
	n     int64  // integer value, or array length
	str   []byte // simple, error or bulk payload
	elems []reply
}

// conn is one client connection: a buffered reader for replies and a
// byte slice the caller appends encoded requests to before flush.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

func dialConn(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return newConn(c), nil
}

// flush writes the pending requests in one call.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.c.Write(c.out)
	c.out = c.out[:0]
	return err
}

// cmd appends one command as a RESP array of bulk strings.
func (c *conn) cmd(args ...string) {
	c.out = appendArrayHeader(c.out, len(args))
	for _, a := range args {
		c.out = appendBulk(c.out, a)
	}
}

// do sends one command and reads its reply into r.
func (c *conn) do(r *reply, args ...string) error {
	c.cmd(args...)
	if err := c.flush(); err != nil {
		return err
	}
	return c.read(r)
}

// must is do for commands whose error reply is a failure.
func (c *conn) must(r *reply, args ...string) error {
	if err := c.do(r, args...); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	if r.kind == '-' {
		return fmt.Errorf("%s: server error %q", args[0], r.str)
	}
	return nil
}

func appendArrayHeader(b []byte, n int) []byte {
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\r', '\n')
}

func appendBulk(b []byte, s string) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, '\r', '\n')
	b = append(b, s...)
	return append(b, '\r', '\n')
}

func appendBulkInt(b []byte, n int64) []byte {
	var tmp [20]byte
	return appendBulkBytes(b, strconv.AppendInt(tmp[:0], n, 10))
}

func appendBulkBytes(b, s []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, '\r', '\n')
	b = append(b, s...)
	return append(b, '\r', '\n')
}

var errProto = errors.New("malformed reply")

// read decodes the next reply into r.
func (c *conn) read(r *reply) error { return readReply(c.br, r, true) }

func readReply(br *bufio.Reader, r *reply, top bool) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return errProto
	}
	r.kind, r.null = line[0], false
	body := line[1 : len(line)-2]
	switch r.kind {
	case '+', '-':
		r.str = append(r.str[:0], body...)
	case ':':
		if r.n, err = strconv.ParseInt(string(body), 10, 64); err != nil {
			return errProto
		}
	case '$':
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return errProto
		}
		if n < 0 {
			r.null = true
			r.str = r.str[:0]
			return nil
		}
		if cap(r.str) < n+2 {
			r.str = make([]byte, n+2)
		}
		r.str = r.str[:n+2]
		if _, err := io.ReadFull(br, r.str); err != nil {
			return err
		}
		r.str = r.str[:n]
	case '*':
		if !top {
			return errProto
		}
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return errProto
		}
		if n < 0 {
			r.null, r.n = true, 0
			return nil
		}
		r.n = int64(n)
		for len(r.elems) < n {
			r.elems = append(r.elems, reply{})
		}
		for i := 0; i < n; i++ {
			if err := readReply(br, &r.elems[i], false); err != nil {
				return err
			}
		}
	default:
		return errProto
	}
	return nil
}

// describe renders a reply for an error message.
func (r *reply) describe() string {
	switch {
	case r.null:
		return "nil"
	case r.kind == ':':
		return ":" + strconv.FormatInt(r.n, 10)
	case r.kind == '*':
		return fmt.Sprintf("array of %d", r.n)
	}
	s := string(r.str)
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return string(r.kind) + strconv.Quote(s)
}

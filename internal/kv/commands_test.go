package kv

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resp"
	"repro/internal/stm"
)

// TestIncrOverflow: INCR and HINCRBY refuse a sum past the int64 range
// in either direction and leave the stored value as it was.
func TestIncrOverflow(t *testing.T) {
	st := New(stm.New())
	for _, c := range []struct{ start, delta int64 }{
		{math.MaxInt64, 1}, {1, math.MaxInt64}, {math.MinInt64, -1}, {-2, math.MinInt64},
	} {
		key := fmt.Sprintf("k%d%+d", c.start, c.delta)
		start := strconv.FormatInt(c.start, 10)
		if err := st.Set(key, start); err != nil {
			t.Fatal(err)
		}
		if n, err := st.Incr(key, c.delta); !errors.Is(err, ErrOverflow) {
			t.Fatalf("Incr(%s, %d) = %d, %v; want ErrOverflow", start, c.delta, n, err)
		}
		if v, _, err := st.Get(key); err != nil || v != start {
			t.Fatalf("after refused Incr %s = %q, %v; want %q", key, v, err, start)
		}
		if _, err := st.HSet("h", key, start); err != nil {
			t.Fatal(err)
		}
		if n, err := st.HIncr("h", key, c.delta); !errors.Is(err, ErrOverflow) {
			t.Fatalf("HIncr(%s, %d) = %d, %v; want ErrOverflow", start, c.delta, n, err)
		}
		if v, _, err := st.HGet("h", key); err != nil || v != start {
			t.Fatalf("after refused HIncr %s = %q, %v; want %q", key, v, err, start)
		}
	}
	// The extremes themselves are reachable.
	if n, err := st.Incr("edge", math.MaxInt64); err != nil || n != math.MaxInt64 {
		t.Fatalf("Incr to MaxInt64 = %d, %v", n, err)
	}
	if n, err := st.HIncr("h", "edge", math.MinInt64); err != nil || n != math.MinInt64 {
		t.Fatalf("HIncr to MinInt64 = %d, %v", n, err)
	}
}

// TestServerIncrOverflow: over the wire the refusal is Redis's error
// text, and inside EXEC it aborts the whole block.
func TestServerIncrOverflow(t *testing.T) {
	addr, stop := startServer(t, New(stm.New()))
	defer stop()
	c := dialClient(t, addr)
	defer c.close()

	const want = "ERR increment or decrement would overflow"
	c.mustDo(t, "INCRBY", "n", "9223372036854775807")
	c.mustDo(t, "HINCRBY", "h", "f", "-9223372036854775808")
	for _, cmd := range [][]string{{"INCR", "n"}, {"INCRBY", "n", "1"}, {"HINCRBY", "h", "f", "-1"}} {
		if v, _ := c.do(cmd...); !v.IsError() || v.Str != want {
			t.Fatalf("%v = %+v, want %q", cmd, v, want)
		}
	}
	if v := c.mustDo(t, "GET", "n"); v.Str != "9223372036854775807" {
		t.Fatalf("GET n after refused INCR = %+v", v)
	}
	if v := c.mustDo(t, "HGET", "h", "f"); v.Str != "-9223372036854775808" {
		t.Fatalf("HGET h f after refused HINCRBY = %+v", v)
	}
	c.mustDo(t, "MULTI")
	c.mustDo(t, "SET", "other", "1")
	c.mustDo(t, "INCR", "n")
	if v, _ := c.do("EXEC"); !v.IsError() || v.Str != "EXECABORT Transaction aborted: "+want {
		t.Fatalf("EXEC with overflowing INCR = %+v", v)
	}
	if v := c.mustDo(t, "GET", "other"); !v.Null {
		t.Fatalf("aborted EXEC leaked a write: %+v", v)
	}
}

// TestREADMECommandTable: the command table in cmd/stmkv/README.md
// names exactly the commands the server's table defines.
func TestREADMECommandTable(t *testing.T) {
	doc, err := os.ReadFile("../../cmd/stmkv/README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| Command | Notes |\n")
	if !ok {
		t.Fatal("README has no \"| Command | Notes |\" table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := make(map[string]bool)
	span := regexp.MustCompile("`([^`]*)`")
	firstCell := regexp.MustCompile(`^\|((?:[^|\\]|\\.)*)\|`)
	for _, row := range strings.Split(table, "\n") {
		cell := firstCell.FindStringSubmatch(row)
		if cell == nil {
			t.Fatalf("README table row %q has no first cell", row)
		}
		for _, m := range span.FindAllStringSubmatch(cell[1], -1) {
			documented[strings.Fields(m[1])[0]] = true
		}
	}
	for _, cmd := range commands {
		if !documented[cmd.name] {
			t.Errorf("%s is in the command table but not in the README", cmd.name)
		}
	}
	for name := range documented {
		if _, ok := commandIndex[name]; !ok {
			t.Errorf("README documents %s, which the command table does not define", name)
		}
	}
}

// pipeListener hands a Server in-memory connections made by dial.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

// FuzzServerCommands drives a Server over net.Pipe with a script of
// commands, one per line, arguments split on spaces (an empty line is
// an empty command array). Whatever the commands, the server must not
// panic, must answer each with exactly one reply (an EXEC block's is
// one array), and Close must return with no handler left. It catches a
// parse or exec step that indexes past its arity.
func FuzzServerCommands(f *testing.F) {
	args := []string{"k", "1", "-1", "v", "WITHSCORES"}
	for _, cmd := range commands {
		for n := 0; n <= 5; n++ {
			f.Add(strings.Join(append([]string{cmd.name}, args[:n]...), " "))
		}
	}
	f.Add("NOSUCH k\nget k\n\nMULTI\nSET k 1\nLPUSH k 1\nINFO x y\nEXEC")
	f.Add("MULTI\nINCR c\nZADD z 1 m 2\nZRANGE z 0 -1 WITHSCORES\nEXEC\nQUIT\nPING")
	st := New(stm.New())
	const sentinel = "\x00end of script\x00"
	f.Fuzz(func(t *testing.T, script string) {
		var cmds [][]string
		for _, line := range strings.Split(script, "\n") {
			if len(cmds) == 64 {
				break
			}
			var args []string
			if line != "" {
				args = strings.Split(line, " ")
			}
			cmds = append(cmds, args)
			if len(args) > 0 && strings.ToUpper(args[0]) == "QUIT" {
				break
			}
		}
		last := cmds[len(cmds)-1]
		quit := len(last) > 0 && strings.ToUpper(last[0]) == "QUIT"
		want := len(cmds)
		if !quit {
			// Close any open block, then mark the end of the replies.
			cmds = append(cmds, []string{"DISCARD"}, []string{"PING", sentinel})
			want += 2
		}

		srv := NewServer(st)
		ln := newPipeListener()
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		conn := ln.dial()
		defer conn.Close()
		go func() {
			w := resp.NewWriter(conn)
			for _, args := range cmds {
				w.Array(len(args))
				for _, a := range args {
					w.Bulk(a)
				}
			}
			w.Flush() // fails once the server hangs up after QUIT
		}()
		if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		r := resp.NewReader(conn)
		for i := 0; i < want; i++ {
			v, err := r.ReadReply()
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, want, err)
			}
			if i == want-1 && !quit && (v.Kind != '$' || v.Str != sentinel) {
				t.Fatalf("last reply = %+v, want the sentinel: a command was answered more than once", v)
			}
		}
		if quit {
			if v, err := r.ReadReply(); err == nil {
				t.Fatalf("reply %+v after QUIT", v)
			}
		}
		conn.Close()
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return: a handler is stuck")
		}
		if err := <-served; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	})
}

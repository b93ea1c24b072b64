package kv

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resp"
	"repro/internal/stm"
)

// startServer brings up a server on an ephemeral port and returns its
// address and a shutdown func.
func startServer(t *testing.T, st *Store) (string, func()) {
	t.Helper()
	return serveOn(t, st, listen(t))
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// startCountingServer is startServer with every accepted connection's
// Write calls counted: each one is a write syscall the server makes.
func startCountingServer(t *testing.T, st *Store) (string, *atomic.Int64, func()) {
	t.Helper()
	ln := &countingListener{Listener: listen(t)}
	addr, stop := serveOn(t, st, ln)
	return addr, &ln.writes, stop
}

type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// serveOn runs a server for st on ln and returns ln's address and a
// shutdown func.
func serveOn(t *testing.T, st *Store, ln net.Listener) (string, func()) {
	t.Helper()
	srv := NewServer(st)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	}
	return ln.Addr().String(), stop
}

// client is a minimal test client over the resp package.
type client struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}
}

func (c *client) close() { c.conn.Close() }

// do sends one command as an array frame and reads one reply.
func (c *client) do(args ...string) (resp.Value, error) {
	c.w.Array(len(args))
	for _, a := range args {
		c.w.Bulk(a)
	}
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return c.r.ReadReply()
}

// mustDo fails the test on transport errors or unexpected error
// replies.
func (c *client) mustDo(t *testing.T, args ...string) resp.Value {
	t.Helper()
	v, err := c.do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if v.IsError() {
		t.Fatalf("%v: error reply %q", args, v.Str)
	}
	return v
}

// TestServerProtocol drives the full command surface over real TCP:
// every verb, null replies, error replies, inline commands, and the
// MULTI/EXEC/DISCARD state machine including the poisoned-queue path.
func TestServerProtocol(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	addr, stop := startServer(t, st)
	defer stop()
	c := dialClient(t, addr)
	defer c.close()

	if v := c.mustDo(t, "PING"); v.Kind != '+' || v.Str != "PONG" {
		t.Fatalf("PING = %+v", v)
	}
	if v := c.mustDo(t, "PING", "hello"); v.Kind != '$' || v.Str != "hello" {
		t.Fatalf("PING hello = %+v", v)
	}
	if v := c.mustDo(t, "SET", "k", "v"); v.Str != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v := c.mustDo(t, "GET", "k"); v.Str != "v" {
		t.Fatalf("GET = %+v", v)
	}
	if v := c.mustDo(t, "GET", "missing"); !v.Null {
		t.Fatalf("GET missing = %+v, want null", v)
	}
	if v := c.mustDo(t, "INCR", "n"); v.Int != 1 {
		t.Fatalf("INCR = %+v", v)
	}
	if v := c.mustDo(t, "INCRBY", "n", "41"); v.Int != 42 {
		t.Fatalf("INCRBY = %+v", v)
	}
	if v, err := c.do("INCR", "k"); err != nil || !v.IsError() || !strings.Contains(v.Str, "not an integer") {
		t.Fatalf("INCR on text = %+v, %v", v, err)
	}
	if v := c.mustDo(t, "MSET", "a", "1", "b", "2"); v.Str != "OK" {
		t.Fatalf("MSET = %+v", v)
	}
	v := c.mustDo(t, "MGET", "a", "nope", "b")
	if len(v.Elems) != 3 || v.Elems[0].Str != "1" || !v.Elems[1].Null || v.Elems[2].Str != "2" {
		t.Fatalf("MGET = %+v", v)
	}
	if v := c.mustDo(t, "DEL", "a", "nope"); v.Int != 1 {
		t.Fatalf("DEL = %+v", v)
	}
	if v := c.mustDo(t, "DBSIZE"); v.Int != 3 { // k, n, b
		t.Fatalf("DBSIZE = %+v", v)
	}

	// Expiry over the wire, against the injected clock.
	if v := c.mustDo(t, "SET", "tmp", "x", "PX", "500"); v.Str != "OK" {
		t.Fatalf("SET PX = %+v", v)
	}
	if v := c.mustDo(t, "PTTL", "tmp"); v.Int != 500 {
		t.Fatalf("PTTL = %+v", v)
	}
	if v := c.mustDo(t, "TTL", "tmp"); v.Int != 1 { // 500ms rounds up
		t.Fatalf("TTL = %+v", v)
	}
	if v := c.mustDo(t, "TTL", "k"); v.Int != -1 {
		t.Fatalf("TTL no-expiry = %+v", v)
	}
	if v := c.mustDo(t, "TTL", "ghost"); v.Int != -2 {
		t.Fatalf("TTL missing = %+v", v)
	}
	clk.advance(600 * time.Millisecond)
	if v := c.mustDo(t, "GET", "tmp"); !v.Null {
		t.Fatalf("GET after expiry = %+v", v)
	}
	if v := c.mustDo(t, "EXPIRE", "k", "100"); v.Int != 1 {
		t.Fatalf("EXPIRE = %+v", v)
	}
	if v := c.mustDo(t, "EXPIRE", "ghost", "100"); v.Int != 0 {
		t.Fatalf("EXPIRE ghost = %+v", v)
	}

	// TTL arguments that would overflow time.Duration are rejected, not
	// silently turned into deletes; SET requires a positive expiry.
	c.mustDo(t, "SET", "longlived", "v")
	if v, _ := c.do("EXPIRE", "longlived", "10000000000"); !v.IsError() || !strings.Contains(v.Str, "invalid expire") {
		t.Fatalf("overflowing EXPIRE = %+v, want invalid-expire error", v)
	}
	if v := c.mustDo(t, "GET", "longlived"); v.Str != "v" {
		t.Fatalf("key lost to overflowing EXPIRE: %+v", v)
	}
	if v, _ := c.do("SET", "x", "y", "EX", "0"); !v.IsError() {
		t.Fatalf("SET EX 0 = %+v, want error", v)
	}
	if v, _ := c.do("SET", "x", "y", "PX", "-40"); !v.IsError() {
		t.Fatalf("SET PX -40 = %+v, want error", v)
	}
	// EXPIRE with an in-range negative TTL still deletes (Redis
	// semantics).
	if v := c.mustDo(t, "EXPIRE", "longlived", "-1"); v.Int != 1 {
		t.Fatalf("EXPIRE -1 = %+v", v)
	}
	if v := c.mustDo(t, "GET", "longlived"); !v.Null {
		t.Fatalf("EXPIRE -1 did not delete: %+v", v)
	}

	// MULTI/EXEC: queued replies, then the block's replies as one array.
	if v := c.mustDo(t, "MULTI"); v.Str != "OK" {
		t.Fatalf("MULTI = %+v", v)
	}
	if v := c.mustDo(t, "INCRBY", "x1", "5"); v.Str != "QUEUED" {
		t.Fatalf("queue INCRBY = %+v", v)
	}
	if v := c.mustDo(t, "INCRBY", "x2", "-5"); v.Str != "QUEUED" {
		t.Fatalf("queue INCRBY = %+v", v)
	}
	if v := c.mustDo(t, "MGET", "x1", "x2"); v.Str != "QUEUED" {
		t.Fatalf("queue MGET = %+v", v)
	}
	v = c.mustDo(t, "EXEC")
	if len(v.Elems) != 3 || v.Elems[0].Int != 5 || v.Elems[1].Int != -5 {
		t.Fatalf("EXEC = %+v", v)
	}
	if got := v.Elems[2]; got.Elems[0].Str != "5" || got.Elems[1].Str != "-5" {
		t.Fatalf("EXEC inner MGET = %+v", got)
	}

	// DISCARD drops the queue.
	c.mustDo(t, "MULTI")
	c.mustDo(t, "SET", "discarded", "1")
	if v := c.mustDo(t, "DISCARD"); v.Str != "OK" {
		t.Fatalf("DISCARD = %+v", v)
	}
	if v := c.mustDo(t, "GET", "discarded"); !v.Null {
		t.Fatalf("GET after DISCARD = %+v", v)
	}

	// A bad command poisons the queue: EXEC aborts.
	c.mustDo(t, "MULTI")
	if v, _ := c.do("NOSUCH", "x"); !v.IsError() {
		t.Fatalf("queueing unknown command = %+v", v)
	}
	if v, _ := c.do("SET", "y", "1"); v.Str != "QUEUED" {
		t.Fatalf("queue after poison = %+v", v)
	}
	if v, _ := c.do("EXEC"); !v.IsError() || !strings.Contains(v.Str, "EXECABORT") {
		t.Fatalf("EXEC on poisoned queue = %+v", v)
	}
	if v := c.mustDo(t, "GET", "y"); !v.Null {
		t.Fatalf("poisoned EXEC committed: %+v", v)
	}

	// EXEC is all-or-nothing: a failing INCR aborts the whole block.
	c.mustDo(t, "SET", "text", "abc")
	c.mustDo(t, "MULTI")
	c.mustDo(t, "SET", "z", "1")
	c.mustDo(t, "INCR", "text")
	if v, _ := c.do("EXEC"); !v.IsError() || !strings.Contains(v.Str, "EXECABORT") {
		t.Fatalf("EXEC with failing INCR = %+v", v)
	}
	if v := c.mustDo(t, "GET", "z"); !v.Null {
		t.Fatalf("aborted EXEC leaked a write: %+v", v)
	}

	// State-machine errors outside MULTI.
	if v, _ := c.do("EXEC"); !v.IsError() {
		t.Fatalf("EXEC without MULTI = %+v", v)
	}
	if v, _ := c.do("DISCARD"); !v.IsError() {
		t.Fatalf("DISCARD without MULTI = %+v", v)
	}
	if v, _ := c.do("GET"); !v.IsError() {
		t.Fatalf("GET with no key = %+v", v)
	}

	// Inline form over the same connection.
	if _, err := c.conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.r.ReadReply(); err != nil || v.Str != "PONG" {
		t.Fatalf("inline PING = %+v, %v", v, err)
	}

	// QUIT closes cleanly.
	if v, err := c.do("QUIT"); err != nil || v.Str != "OK" {
		t.Fatalf("QUIT = %+v, %v", v, err)
	}
}

// TestTransactionCommandArity: MULTI, EXEC and DISCARD take no
// arguments (Redis arity 1), outside a block and inside one, where the
// arity error poisons the block and leaves it open; QUIT still accepts
// and ignores extra arguments (Redis arity -1).
func TestTransactionCommandArity(t *testing.T) {
	st := New(stm.New())
	addr, stop := startServer(t, st)
	defer stop()
	c := dialClient(t, addr)
	defer c.close()

	arity := func(cmd ...string) {
		t.Helper()
		want := "ERR wrong number of arguments for '" + strings.ToLower(cmd[0]) + "' command"
		if v, _ := c.do(cmd...); !v.IsError() || v.Str != want {
			t.Fatalf("%v = %+v, want %q", cmd, v, want)
		}
	}
	for _, cmd := range [][]string{{"MULTI", "x"}, {"EXEC", "x"}, {"DISCARD", "x", "y"}} {
		arity(cmd...)
		// No block was opened or closed: a write runs at once.
		if v := c.mustDo(t, "SET", "k", cmd[0]); v.Str != "OK" {
			t.Fatalf("SET after %v = %+v, want OK", cmd, v)
		}
	}
	for _, cmd := range [][]string{{"MULTI", "x"}, {"EXEC", "x"}, {"DISCARD", "x"}} {
		c.mustDo(t, "MULTI")
		arity(cmd...)
		if v, _ := c.do("SET", "k", "queued"); v.Str != "QUEUED" {
			t.Fatalf("SET after %v inside MULTI = %+v, want QUEUED", cmd, v)
		}
		if v, _ := c.do("EXEC"); !v.IsError() || !strings.HasPrefix(v.Str, "EXECABORT") {
			t.Fatalf("EXEC after %v = %+v, want EXECABORT", cmd, v)
		}
	}
	if v := c.mustDo(t, "GET", "k"); v.Str != "DISCARD" {
		t.Fatalf("GET k = %+v, want the last write outside a block", v)
	}
	if v, err := c.do("QUIT", "x"); err != nil || v.Str != "OK" {
		t.Fatalf("QUIT x = %+v, %v; want OK", v, err)
	}
}

// TestServerTypedCommands drives the container command surface over
// real TCP: hash, list and zset verbs, TYPE, WRONGTYPE and arity
// error replies, WITHSCORES, and a MULTI/EXEC block spanning all
// three container kinds plus the all-or-nothing abort on a typed
// error.
func TestServerTypedCommands(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	addr, stop := startServer(t, st)
	defer stop()
	c := dialClient(t, addr)
	defer c.close()

	// Hashes.
	if v := c.mustDo(t, "HSET", "h", "f1", "a", "f2", "b"); v.Int != 2 {
		t.Fatalf("HSET = %+v", v)
	}
	if v := c.mustDo(t, "HSET", "h", "f1", "c"); v.Int != 0 {
		t.Fatalf("HSET overwrite = %+v", v)
	}
	if v := c.mustDo(t, "HGET", "h", "f1"); v.Str != "c" {
		t.Fatalf("HGET = %+v", v)
	}
	if v := c.mustDo(t, "HGET", "h", "nope"); !v.Null {
		t.Fatalf("HGET absent = %+v", v)
	}
	if v := c.mustDo(t, "HLEN", "h"); v.Int != 2 {
		t.Fatalf("HLEN = %+v", v)
	}
	v := c.mustDo(t, "HGETALL", "h")
	if len(v.Elems) != 4 {
		t.Fatalf("HGETALL = %+v", v)
	}
	got := map[string]string{v.Elems[0].Str: v.Elems[1].Str, v.Elems[2].Str: v.Elems[3].Str}
	if got["f1"] != "c" || got["f2"] != "b" {
		t.Fatalf("HGETALL pairs = %v", got)
	}
	if v := c.mustDo(t, "HINCRBY", "h", "ctr", "7"); v.Int != 7 {
		t.Fatalf("HINCRBY = %+v", v)
	}
	if v := c.mustDo(t, "HDEL", "h", "f1", "ghost"); v.Int != 1 {
		t.Fatalf("HDEL = %+v", v)
	}
	if v, _ := c.do("HSET", "h", "odd"); !v.IsError() {
		t.Fatalf("HSET bad arity = %+v", v)
	}

	// Lists.
	if v := c.mustDo(t, "RPUSH", "l", "a", "b"); v.Int != 2 {
		t.Fatalf("RPUSH = %+v", v)
	}
	if v := c.mustDo(t, "LPUSH", "l", "z"); v.Int != 3 {
		t.Fatalf("LPUSH = %+v", v)
	}
	v = c.mustDo(t, "LRANGE", "l", "0", "-1")
	if len(v.Elems) != 3 || v.Elems[0].Str != "z" || v.Elems[2].Str != "b" {
		t.Fatalf("LRANGE = %+v", v)
	}
	if v := c.mustDo(t, "LPOP", "l"); v.Str != "z" {
		t.Fatalf("LPOP = %+v", v)
	}
	if v := c.mustDo(t, "RPOP", "l"); v.Str != "b" {
		t.Fatalf("RPOP = %+v", v)
	}
	if v := c.mustDo(t, "LLEN", "l"); v.Int != 1 {
		t.Fatalf("LLEN = %+v", v)
	}
	if v := c.mustDo(t, "LPOP", "ghostlist"); !v.Null {
		t.Fatalf("LPOP missing = %+v", v)
	}

	// Sorted sets.
	if v := c.mustDo(t, "ZADD", "zs", "2", "b", "1", "a", "3", "c"); v.Int != 3 {
		t.Fatalf("ZADD = %+v", v)
	}
	if v := c.mustDo(t, "ZADD", "zs", "0.5", "c"); v.Int != 0 { // relocate
		t.Fatalf("ZADD relocate = %+v", v)
	}
	if v := c.mustDo(t, "ZSCORE", "zs", "b"); v.Str != "2" {
		t.Fatalf("ZSCORE = %+v", v)
	}
	if v := c.mustDo(t, "ZSCORE", "zs", "ghost"); !v.Null {
		t.Fatalf("ZSCORE missing = %+v", v)
	}
	v = c.mustDo(t, "ZRANGE", "zs", "0", "-1")
	if len(v.Elems) != 3 || v.Elems[0].Str != "c" || v.Elems[1].Str != "a" || v.Elems[2].Str != "b" {
		t.Fatalf("ZRANGE = %+v", v)
	}
	v = c.mustDo(t, "ZRANGE", "zs", "0", "1", "WITHSCORES")
	if len(v.Elems) != 4 || v.Elems[0].Str != "c" || v.Elems[1].Str != "0.5" || v.Elems[2].Str != "a" || v.Elems[3].Str != "1" {
		t.Fatalf("ZRANGE WITHSCORES = %+v", v)
	}
	if v, _ := c.do("ZRANGE", "zs", "0", "1", "NOSUCH"); !v.IsError() {
		t.Fatalf("ZRANGE bad option = %+v", v)
	}
	if v, _ := c.do("ZADD", "zs", "nan", "m"); !v.IsError() || !strings.Contains(v.Str, "not a valid float") {
		t.Fatalf("ZADD nan = %+v", v)
	}
	if v := c.mustDo(t, "ZCARD", "zs"); v.Int != 3 {
		t.Fatalf("ZCARD = %+v", v)
	}
	if v := c.mustDo(t, "ZREM", "zs", "a", "ghost"); v.Int != 1 {
		t.Fatalf("ZREM = %+v", v)
	}

	// TYPE names every kind; WRONGTYPE crosses them.
	c.mustDo(t, "SET", "str", "v")
	for key, want := range map[string]string{"str": "string", "h": "hash", "l": "list", "zs": "zset"} {
		if v := c.mustDo(t, "TYPE", key); v.Kind != '+' || v.Str != want {
			t.Fatalf("TYPE %s = %+v, want %s", key, v, want)
		}
	}
	if v := c.mustDo(t, "TYPE", "ghost"); v.Str != "none" {
		t.Fatalf("TYPE missing = %+v", v)
	}
	for _, cmd := range [][]string{
		{"GET", "h"},
		{"INCR", "l"},
		{"HGET", "l", "f"},
		{"LPUSH", "zs", "x"},
		{"ZADD", "str", "1", "m"},
		{"RPOP", "h"},
	} {
		if v, _ := c.do(cmd...); !v.IsError() || !strings.HasPrefix(v.Str, "WRONGTYPE") {
			t.Fatalf("%v = %+v, want WRONGTYPE", cmd, v)
		}
	}
	// MGET reads container keys as null, never as an error.
	v = c.mustDo(t, "MGET", "str", "h", "l")
	if v.Elems[0].Str != "v" || !v.Elems[1].Null || !v.Elems[2].Null {
		t.Fatalf("MGET over containers = %+v", v)
	}

	// EXPIRE applies to a whole container.
	if v := c.mustDo(t, "EXPIRE", "h", "1"); v.Int != 1 {
		t.Fatalf("EXPIRE hash = %+v", v)
	}
	clk.advance(2 * time.Second)
	if v := c.mustDo(t, "HLEN", "h"); v.Int != 0 {
		t.Fatalf("HLEN after expiry = %+v", v)
	}
	if v := c.mustDo(t, "TYPE", "h"); v.Str != "none" {
		t.Fatalf("TYPE after expiry = %+v", v)
	}

	// One MULTI/EXEC block spanning all three container kinds: promote
	// a job from a list into a zset and bump a hash counter atomically.
	c.mustDo(t, "RPUSH", "jobs", "j1")
	for _, cmd := range [][]string{
		{"MULTI"}, {"LPOP", "jobs"}, {"ZADD", "active", "5", "j1"}, {"HINCRBY", "stats", "promoted", "1"},
	} {
		c.mustDo(t, cmd...)
	}
	v = c.mustDo(t, "EXEC")
	if len(v.Elems) != 3 || v.Elems[0].Str != "j1" || v.Elems[1].Int != 1 || v.Elems[2].Int != 1 {
		t.Fatalf("typed EXEC = %+v", v)
	}
	if v := c.mustDo(t, "TYPE", "jobs"); v.Str != "none" { // drained → auto-deleted
		t.Fatalf("TYPE drained list = %+v", v)
	}
	// All-or-nothing: a WRONGTYPE mid-block aborts every queued write.
	c.mustDo(t, "MULTI")
	c.mustDo(t, "RPUSH", "newlist", "x")
	c.mustDo(t, "HSET", "active", "f", "v") // active is a zset
	if v, _ := c.do("EXEC"); !v.IsError() || !strings.Contains(v.Str, "EXECABORT") {
		t.Fatalf("EXEC with WRONGTYPE = %+v", v)
	}
	if v := c.mustDo(t, "TYPE", "newlist"); v.Str != "none" {
		t.Fatalf("aborted EXEC leaked a container write: %+v", v)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerGarbageDoesNotKill sends protocol garbage and asserts the
// server survives it: the offending connection gets an error reply (or
// a close), and a fresh connection still works.
func TestServerGarbageDoesNotKill(t *testing.T) {
	st := New(stm.New())
	addr, stop := startServer(t, st)
	defer stop()
	for _, garbage := range []string{
		"*2\r\n$3\r\nGET\r\njunkjunk",
		"*-5\r\n",
		"*1\r\n$99999999\r\n",
		"\x00\x01\x02\xff\r\n",
		"*0\r\n", // empty command frame: answered, never a panic
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte(garbage))
		// Expect a response promptly — an error reply (malformed frames
		// also close the connection; unknown inline commands keep it
		// open). Either way the server must answer, not hang.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		if n, err := conn.Read(buf); err != nil || n == 0 || buf[0] != '-' {
			t.Fatalf("garbage %q: reply %q, err %v; want an error reply", garbage, buf[:n], err)
		}
		conn.Close()
	}
	c := dialClient(t, addr)
	defer c.close()
	if v := c.mustDo(t, "PING"); v.Str != "PONG" {
		t.Fatalf("server unhealthy after garbage: %+v", v)
	}
}

// TestServerTransferHammer is the issue's acceptance hammer at the
// protocol level: N connections move value between keys with
// MULTI/INCRBY/INCRBY/EXEC while auditor connections MGET the accounts
// and assert conservation at every snapshot. Runs under -race in CI.
func TestServerTransferHammer(t *testing.T) {
	const (
		accounts = 6
		movers   = 6
		auditors = 2
		initial  = 500
	)
	ops := hammerOps(t) / 2
	s := stm.New(stm.WithManagerFactory(core.MustFactory("karma")), stm.WithInterleavePeriod(4))
	st := New(s, WithShards(4), WithBuckets(2))
	addr, stop := startServer(t, st)
	defer stop()

	keys := make([]string, accounts)
	seed := dialClient(t, addr)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct:%d", i)
		seed.mustDo(t, "SET", keys[i], strconv.Itoa(initial))
	}
	seed.close()

	var wg sync.WaitGroup
	errs := make([]error, movers+auditors)
	for g := 0; g < movers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := dialClient(t, addr)
			defer c.close()
			for i := 0; i < ops; i++ {
				from := keys[(g+i)%accounts]
				to := keys[(g*7+i*3+1)%accounts]
				amount := strconv.Itoa(1 + (i % 9))
				for _, cmd := range [][]string{
					{"MULTI"},
					{"INCRBY", from, "-" + amount},
					{"INCRBY", to, amount},
					{"EXEC"},
				} {
					v, err := c.do(cmd...)
					if err != nil {
						errs[g] = fmt.Errorf("%v: %w", cmd, err)
						return
					}
					if v.IsError() {
						errs[g] = fmt.Errorf("%v: %s", cmd, v.Str)
						return
					}
				}
			}
		}(g)
	}
	for a := 0; a < auditors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c := dialClient(t, addr)
			defer c.close()
			for i := 0; i < ops; i++ {
				v, err := c.do(append([]string{"MGET"}, keys...)...)
				if err != nil {
					errs[movers+a] = err
					return
				}
				sum := 0
				for j, e := range v.Elems {
					if e.Null {
						errs[movers+a] = fmt.Errorf("account %s vanished", keys[j])
						return
					}
					n, err := strconv.Atoi(e.Str)
					if err != nil {
						errs[movers+a] = err
						return
					}
					sum += n
				}
				if sum != accounts*initial {
					errs[movers+a] = fmt.Errorf("conservation broken: sum %d, want %d", sum, accounts*initial)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseUnblocksClients: Close with live idle connections
// must not deadlock, and in-flight handlers must drain.
func TestServerCloseUnblocksClients(t *testing.T) {
	st := New(stm.New())
	addr, stop := startServer(t, st)
	c := dialClient(t, addr)
	defer c.close()
	if v := c.mustDo(t, "PING"); v.Str != "PONG" {
		t.Fatalf("PING = %+v", v)
	}
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain with a live connection")
	}
	if _, err := c.do("PING"); err == nil {
		t.Fatal("connection survived server Close")
	}
}

// send writes frames to c in one write, as a pipelining client does,
// and arms a read deadline for the replies.
func (c *client) send(t *testing.T, frames string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(frames)); err != nil {
		t.Fatal(err)
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestServerPipelinedBatchOneWrite: a batch of pipelined commands that
// arrives in one read is answered, in order, by one write. The count
// is deterministic, so it gates the reply batching directly.
func TestServerPipelinedBatchOneWrite(t *testing.T) {
	const depth = 16
	addr, writes, stop := startCountingServer(t, New(stm.New()))
	defer stop()
	c := dialClient(t, addr)
	defer c.close()
	c.send(t, strings.Repeat("*2\r\n$4\r\nINCR\r\n$1\r\nn\r\n", depth))
	for i := int64(1); i <= depth; i++ {
		v, err := c.r.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if v.Kind != ':' || v.Int != i {
			t.Fatalf("reply %d = %+v, want :%d", i, v, i)
		}
	}
	if got := writes.Load(); got != 1 {
		t.Fatalf("%d pipelined commands took %d server writes, want 1", depth, got)
	}
}

// TestServerRepliesBeforePartialFrame: a client that sends a command
// plus the start of the next, then waits, gets the first reply. A
// server that flushed only when its read buffer was empty would hold
// the reply until the rest of the frame came, and both would wait.
func TestServerRepliesBeforePartialFrame(t *testing.T) {
	addr, stop := startServer(t, New(stm.New()))
	defer stop()
	c := dialClient(t, addr)
	defer c.close()
	c.send(t, "PING\r\n*1\r\n$4\r\nPI")
	if v, err := c.r.ReadReply(); err != nil || v.Str != "PONG" {
		t.Fatalf("reply before the partial frame = %+v, %v; want +PONG", v, err)
	}
	c.send(t, "NG\r\n")
	if v, err := c.r.ReadReply(); err != nil || v.Str != "PONG" {
		t.Fatalf("reply to the completed frame = %+v, %v; want +PONG", v, err)
	}
}

// TestServerDurableAckNotHeld: on a durable store each write waits for
// a WAL group commit, so the server sends the replies it has before
// starting the next one. Two pipelined SETs take two writes, not one:
// the first ack does not wait behind the second SET's fsync.
func TestServerDurableAckNotHeld(t *testing.T) {
	st := New(stm.New())
	l := openTestWAL(t, t.TempDir())
	st.AttachWAL(l)
	addr, writes, stop := startCountingServer(t, st)
	c := dialClient(t, addr)
	defer c.close()
	c.send(t, strings.Repeat("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n", 2))
	for i := 0; i < 2; i++ {
		if v, err := c.r.ReadReply(); err != nil || v.Str != "OK" {
			t.Fatalf("SET %d = %+v, %v; want +OK", i, v, err)
		}
	}
	if got := writes.Load(); got != 2 {
		t.Fatalf("two pipelined durable SETs took %d server writes, want 2", got)
	}
	stop()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

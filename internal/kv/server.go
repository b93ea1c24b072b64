package kv

import (
	"errors"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resp"
)

// Server speaks the RESP-lite protocol over TCP, one goroutine per
// connection — and therefore one pooled STM session per in-flight
// command, the execution model PR 2's goroutine-agnostic API was built
// for. Singleton commands run as single atomic transactions;
// MULTI/EXEC queues commands client-side and replays the block inside
// one transaction, so a cross-key transfer serializes against every
// concurrent singleton operation and shard resize.
//
// Deviation from Redis worth knowing: EXEC is all-or-nothing. A
// command that fails inside the block (INCR on a non-integer value)
// aborts the whole transaction and EXEC reports EXECABORT, where Redis
// would run the remaining commands and inline the error — atomicity is
// the point of running on an STM, so the stricter semantics is kept.
type Server struct {
	store *Store

	// Observability state (see info.go, abortlog.go): the metrics
	// registry, the per-command instruments, the SLOWLOG and ABORTLOG
	// rings, and the labels INFO reports.
	reg         *obs.Registry
	sm          *serverMetrics
	slow        *slowlog
	abort       *AbortLog
	managerName string
	started     time.Time

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server for the store. Without options it keeps
// metrics in a private registry (INFO and SLOWLOG still work); pass
// WithRegistry to expose them on a shared /metrics listener.
func NewServer(store *Store, opts ...ServerOption) *Server {
	srv := &Server{
		store:       store,
		conns:       make(map[net.Conn]struct{}),
		managerName: "default",
		started:     time.Now(),
		slow:        &slowlog{threshold: 10 * time.Millisecond, ringLog: newRingLog[slowEntry](128)},
		// A private ring by default, replaced by WithAbortLog when
		// cmd/stmkv installs one on the engine; without the option
		// ABORTLOG answers but never fills.
		abort: NewAbortLog(128),
	}
	for _, opt := range opts {
		opt(srv)
	}
	if srv.reg == nil {
		srv.reg = obs.NewRegistry()
	}
	srv.sm = newServerMetrics(srv.reg)
	registerStoreMetrics(srv.reg, store, srv.managerName)
	return srv
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown, or the first accept error otherwise.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("kv: server already closed")
	}
	srv.ln = ln
	srv.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			closed := srv.closed
			srv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			conn.Close()
			return nil
		}
		srv.conns[conn] = struct{}{}
		srv.wg.Add(1)
		srv.mu.Unlock()
		go srv.handle(conn)
	}
}

// Close stops accepting, closes every live connection and waits for
// their handlers to drain — the clean-shutdown contract the smoke mode
// asserts.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	ln := srv.ln
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	srv.wg.Wait()
	return err
}

// drop unregisters and closes a finished connection.
func (srv *Server) drop(conn net.Conn) {
	srv.mu.Lock()
	delete(srv.conns, conn)
	srv.mu.Unlock()
	conn.Close()
	srv.wg.Done()
}

// handle runs one connection's command loop. The command table
// (commands.go) is the single definition of every command: handle
// looks the name up, checks arity, the MULTI rule and the parse step
// (session.prepare), then queues the command, runs it as one
// transaction or runs its control action (session.run). A command
// rejected while a MULTI block is open poisons the block, Redis-style,
// and EXEC replays the parsed queue inside one atomic transaction.
//
// Replies are buffered and flushed before the handler blocks: the
// reader flushes before every read from the connection (see
// flushReader), so a batch of pipelined commands is answered in one
// write, and a client that sent a command plus part of the next still
// gets its reply. On a durable store the handler also flushes before
// each command that may wait on the disk (a write's WAL group commit,
// an EXEC block or a SAVE), so finished replies are not held behind
// its fsync.
func (srv *Server) handle(conn net.Conn) {
	defer srv.drop(conn)
	srv.sm.connections.Inc()
	srv.sm.clients.Add(1)
	defer srv.sm.clients.Add(-1)
	w := resp.NewWriter(conn)
	r := resp.NewReader(flushReader{conn: conn, w: w})
	c := &session{srv: srv, w: w}
	for {
		args, err := r.ReadCommand()
		if err != nil {
			if resp.IsProtoError(err) {
				// Tell the peer why before hanging up.
				w.Error("ERR protocol error: " + err.Error())
				w.Flush()
			}
			return
		}
		if len(args) == 0 {
			// An empty array frame (*0) is a syntactically valid
			// non-command; answering beats crashing the handler.
			w.Value(resp.ErrVal("ERR empty command"))
			continue
		}
		start := time.Now()
		name := strings.ToUpper(args[0])
		args = args[1:]
		var reply resp.Value
		var cost txCost
		i, a, err := c.prepare(name, args)
		if err != nil {
			reply = commandError(err)
		} else if reply, cost, err = c.run(&commands[i], a); err != nil {
			return
		}
		srv.observe(i, name, start, args, reply, cost)
		w.Value(reply)
		if c.quit {
			w.Flush()
			return
		}
	}
}

// flushReader is the connection as handle's command reader sees it:
// every read first flushes the replies encoded so far. The buffered
// reader reads from the connection only when the commands it holds
// are used up (or end in a partial frame), and that read may block,
// so replies go out once per batch of pipelined commands and never
// wait behind a read for more input.
type flushReader struct {
	conn net.Conn
	w    *resp.Writer
}

func (f flushReader) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.conn.Read(p)
}

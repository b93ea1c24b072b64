package kv

import (
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
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
	// rings, the interned flight-recorder labels, and the labels INFO
	// reports.
	reg         *obs.Registry
	sm          *serverMetrics
	slow        *slowlog
	abort       *AbortLog
	cmdLabels   map[string]stm.Label
	execLabel   stm.Label
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
		slow:        &slowlog{threshold: 10 * time.Millisecond, ring: make([]slowEntry, 128)},
		// A private ring by default, replaced by WithAbortLog when
		// cmd/stmkv installs one on the engine; without the option
		// ABORTLOG answers but never fills.
		abort: NewAbortLog(128),
		// Flight-recorder labels, interned once here so the hot path
		// only copies a uint32 into the transaction.
		cmdLabels: make(map[string]stm.Label, len(commandNames)),
		execLabel: stm.InternLabel("EXEC"),
	}
	for _, name := range commandNames {
		srv.cmdLabels[name] = stm.InternLabel(name)
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

// handle runs one connection's command loop, including its MULTI
// state: queued commands are validated at queue time (a bad command
// poisons the block, Redis-style), and EXEC replays the queue inside
// one atomic transaction.
//
// Replies are buffered and flushed before the handler blocks: the
// reader flushes before every read from the connection (see
// flushReader), so a batch of pipelined commands is answered in one
// write, and a client that sent a command plus part of the next still
// gets its reply. On a durable store the handler also flushes before
// each command that may wait on the disk (a WAL group commit or a
// SAVE), so finished replies are not held behind its fsync.
func (srv *Server) handle(conn net.Conn) {
	defer srv.drop(conn)
	srv.sm.connections.Inc()
	srv.sm.clients.Add(1)
	defer srv.sm.clients.Add(-1)
	w := resp.NewWriter(conn)
	r := resp.NewReader(flushReader{conn: conn, w: w})
	durable := srv.store.Durable()
	var (
		multi bool
		queue [][]string
		dirty bool
	)
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
		switch name {
		case "QUIT":
			reply = resp.SimpleVal("OK")
			srv.observe(name, start, args, reply, cost)
			w.Value(reply)
			w.Flush()
			return
		case "INFO":
			switch {
			case len(args) > 1:
				reply = resp.ErrVal("ERR wrong number of arguments for 'info' command")
			case multi:
				// Like SAVE: not replayable inside a transaction, and a
				// stats snapshot inside EXEC would be a lie anyway.
				dirty = true
				reply = resp.ErrVal("ERR INFO inside MULTI is not supported")
			default:
				reply = srv.infoReply(args)
			}
		case "SLOWLOG":
			switch {
			case len(args) == 0:
				reply = resp.ErrVal("ERR wrong number of arguments for 'slowlog' command")
			case multi:
				dirty = true
				reply = resp.ErrVal("ERR SLOWLOG inside MULTI is not supported")
			default:
				reply = srv.slowlogReply(args)
			}
		case "ABORTLOG":
			switch {
			case len(args) == 0:
				reply = resp.ErrVal("ERR wrong number of arguments for 'abortlog' command")
			case multi:
				dirty = true
				reply = resp.ErrVal("ERR ABORTLOG inside MULTI is not supported")
			default:
				reply = srv.abortlogReply(args)
			}
		case "MULTI":
			if multi {
				reply = resp.ErrVal("ERR MULTI calls can not be nested")
			} else {
				multi, queue, dirty = true, nil, false
				reply = resp.SimpleVal("OK")
			}
		case "DISCARD":
			if !multi {
				reply = resp.ErrVal("ERR DISCARD without MULTI")
			} else {
				multi, queue, dirty = false, nil, false
				reply = resp.SimpleVal("OK")
			}
		case "SAVE", "BGSAVE":
			// Snapshots bypass the transactional path: the cut is its
			// own read-only transaction plus file choreography (see
			// Store.Save), not something EXEC could replay.
			switch {
			case len(args) != 0:
				reply = resp.ErrVal(fmt.Sprintf("ERR wrong number of arguments for '%s' command", strings.ToLower(name)))
			case multi:
				dirty = true
				reply = resp.ErrVal("ERR " + name + " inside MULTI is not supported")
			case !srv.store.Durable():
				reply = resp.ErrVal("ERR persistence is disabled (start the server with -data)")
			case name == "SAVE":
				if w.Flush() != nil {
					return
				}
				switch err := srv.store.Save(); {
				case errors.Is(err, wal.ErrSnapshotInProgress):
					reply = resp.ErrVal("ERR save already in progress")
				case err != nil:
					reply = resp.ErrVal("ERR save failed: " + err.Error())
				default:
					reply = resp.SimpleVal("OK")
				}
			default: // BGSAVE: fire and forget, Redis-style.
				go func() {
					if err := srv.store.Save(); err != nil && !errors.Is(err, wal.ErrSnapshotInProgress) {
						srv.NoteBgsaveFailure()
						log.Printf("kv: background save: %v", err)
					}
				}()
				reply = resp.SimpleVal("Background saving started")
			}
		case "EXEC":
			switch {
			case !multi:
				reply = resp.ErrVal("ERR EXEC without MULTI")
			case dirty:
				multi, queue, dirty = false, nil, false
				reply = resp.ErrVal("EXECABORT Transaction discarded because of previous errors")
			default:
				q := queue
				multi, queue = false, nil
				if durable && w.Flush() != nil {
					return
				}
				reply, cost = srv.execBlock(q)
			}
		default:
			if err := checkCommand(name, args); err != nil {
				if multi {
					dirty = true
				}
				reply = resp.ErrVal(err.Error())
			} else if multi {
				queue = append(queue, append([]string{name}, args...))
				reply = resp.SimpleVal("QUEUED")
			} else {
				if durable && w.Flush() != nil {
					return
				}
				reply, cost = srv.runSingle(name, args)
			}
		}
		srv.observe(name, start, args, reply, cost)
		w.Value(reply)
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

// txCost is what one transactional command cost in engine terms:
// attempts executed (1 = first try) and nanoseconds spent inside the
// contention manager. Zero for non-transactional commands. It feeds
// the SLOWLOG, which can then tell a contention victim (many attempts,
// large wait) from genuinely long work.
type txCost struct {
	attempts int64
	waitNs   int64
}

// noteTx captures the transaction's cost so far. Called inside the
// transactional closure — retries overwrite, so the committed
// attempt's totals win (the shared record accumulates across
// attempts).
func (c *txCost) noteTx(tx *stm.Tx) {
	c.attempts = tx.Aborts() + 1
	c.waitNs = tx.WaitNs()
}

// runSingle executes one command as one atomic transaction.
func (srv *Server) runSingle(name string, args []string) (resp.Value, txCost) {
	var reply resp.Value
	var cost txCost
	lbl := srv.cmdLabels[name]
	err := srv.store.Atomically(func(tx *stm.Tx, now int64) error {
		tx.SetLabel(lbl)
		var err error
		reply, err = runCommand(srv.store, tx, now, name, args)
		cost.noteTx(tx)
		return err
	})
	if err != nil {
		return commandError(err), cost
	}
	return reply, cost
}

// execBlock replays a MULTI queue inside one atomic transaction and
// returns the array of replies — or an EXECABORT error when any
// command's execution failed, in which case nothing committed.
func (srv *Server) execBlock(queue [][]string) (resp.Value, txCost) {
	replies := make([]resp.Value, len(queue))
	var cost txCost
	err := srv.store.Atomically(func(tx *stm.Tx, now int64) error {
		tx.SetLabel(srv.execLabel)
		for i, c := range queue {
			v, err := runCommand(srv.store, tx, now, c[0], c[1:])
			if err != nil {
				cost.noteTx(tx)
				return err
			}
			replies[i] = v
		}
		cost.noteTx(tx)
		return nil
	})
	if err != nil {
		return resp.ErrVal("EXECABORT Transaction aborted: " + commandError(err).Str), cost
	}
	return resp.ArrayVal(replies...), cost
}

// commandError maps an in-transaction command failure to its error
// reply. Only expected command-level failures reach clients; anything
// else marks an engine bug loudly.
func commandError(err error) resp.Value {
	switch {
	case errors.Is(err, ErrNotInteger):
		return resp.ErrVal("ERR value is not an integer or out of range")
	case errors.Is(err, ErrWrongType):
		return resp.ErrVal("WRONGTYPE Operation against a key holding the wrong kind of value")
	case errors.Is(err, ErrNotFloat):
		return resp.ErrVal("ERR value is not a valid float")
	}
	return resp.ErrVal("ERR internal: " + err.Error())
}

// checkCommand validates name and arity before execution or queueing,
// so EXEC replays only well-formed commands.
func checkCommand(name string, args []string) error {
	n := len(args)
	ok := true
	switch name {
	case "PING":
		ok = n <= 1
	case "GET", "INCR", "TTL", "PTTL":
		ok = n == 1
	case "SET":
		ok = n == 2 || n == 4
		if n == 4 {
			opt := strings.ToUpper(args[2])
			if opt != "EX" && opt != "PX" {
				return fmt.Errorf("ERR syntax error")
			}
			// SET's expiry must be a positive, non-overflowing TTL
			// (Redis rejects EX 0 too).
			if err := checkTTL(name, args[3], ttlUnit(name, opt), false); err != nil {
				return err
			}
		}
	case "INCRBY":
		ok = n == 2
		if ok {
			if _, err := strconv.ParseInt(args[1], 10, 64); err != nil {
				return fmt.Errorf("ERR value is not an integer or out of range")
			}
		}
	case "EXPIRE", "PEXPIRE":
		// Non-positive TTLs are allowed (they delete, as in Redis), but
		// a magnitude whose duration overflows int64 nanoseconds would
		// silently flip sign — deleting a key meant to live ~300 years —
		// so it is rejected here.
		ok = n == 2
		if ok {
			if err := checkTTL(name, args[1], ttlUnit(name, ""), true); err != nil {
				return err
			}
		}
	case "DEL", "MGET":
		ok = n >= 1
	case "MSET":
		ok = n >= 2 && n%2 == 0
	case "DBSIZE":
		ok = n == 0
	case "HGET", "ZSCORE":
		ok = n == 2
	case "HSET":
		// HSET key field value [field value ...]
		ok = n >= 3 && n%2 == 1
	case "HDEL", "LPUSH", "RPUSH", "ZREM":
		ok = n >= 2
	case "HGETALL", "HLEN", "LPOP", "RPOP", "LLEN", "ZCARD", "TYPE":
		ok = n == 1
	case "HINCRBY":
		ok = n == 3
		if ok {
			if err := checkInt(args[2]); err != nil {
				return err
			}
		}
	case "LRANGE":
		ok = n == 3
		if ok {
			if err := checkInt(args[1]); err != nil {
				return err
			}
			if err := checkInt(args[2]); err != nil {
				return err
			}
		}
	case "ZADD":
		// ZADD key score member [score member ...]
		ok = n >= 3 && n%2 == 1
		if ok {
			for i := 1; i+1 < n; i += 2 {
				if err := checkScore(args[i]); err != nil {
					return err
				}
			}
		}
	case "ZRANGE":
		ok = n == 3 || n == 4
		if n == 4 && strings.ToUpper(args[3]) != "WITHSCORES" {
			return fmt.Errorf("ERR syntax error")
		}
		if ok {
			if err := checkInt(args[1]); err != nil {
				return err
			}
			if err := checkInt(args[2]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("ERR unknown command '%s'", name)
	}
	if !ok {
		return fmt.Errorf("ERR wrong number of arguments for '%s' command", name)
	}
	return nil
}

// checkInt validates an integer argument (rank, delta) at queue time.
func checkInt(arg string) error {
	if _, err := strconv.ParseInt(arg, 10, 64); err != nil {
		return fmt.Errorf("ERR value is not an integer or out of range")
	}
	return nil
}

// checkScore validates a ZADD score at queue time: any finite or
// infinite float parses; NaN has no place in a total order.
func checkScore(arg string) error {
	s, err := strconv.ParseFloat(arg, 64)
	if err != nil || math.IsNaN(s) {
		return fmt.Errorf("ERR value is not a valid float")
	}
	return nil
}

// ttlUnit resolves the time unit of a TTL argument: milliseconds for
// the P-prefixed commands and SET's PX option, seconds otherwise.
func ttlUnit(name, opt string) time.Duration {
	if strings.HasPrefix(name, "P") || opt == "PX" {
		return time.Millisecond
	}
	return time.Second
}

// checkTTL validates a TTL argument: an integer whose duration in unit
// does not overflow time.Duration (int64 nanoseconds) in either
// direction, and positive unless nonPositiveOK (EXPIRE's delete
// semantics) allows otherwise.
func checkTTL(name, arg string, unit time.Duration, nonPositiveOK bool) error {
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return fmt.Errorf("ERR value is not an integer or out of range")
	}
	if !nonPositiveOK && n <= 0 {
		return fmt.Errorf("ERR invalid expire time in '%s' command", strings.ToLower(name))
	}
	limit := int64(math.MaxInt64) / int64(unit)
	if n > limit || n < -limit {
		return fmt.Errorf("ERR invalid expire time in '%s' command", strings.ToLower(name))
	}
	return nil
}

// runCommand executes one validated command inside tx at instant now.
// A returned error aborts the enclosing transaction (and, through it,
// a whole EXEC block).
func runCommand(st *Store, tx *stm.Tx, now int64, name string, args []string) (resp.Value, error) {
	switch name {
	case "PING":
		if len(args) == 1 {
			return resp.BulkVal(args[0]), nil
		}
		return resp.SimpleVal("PONG"), nil
	case "GET":
		v, ok, err := st.GetTx(tx, now, args[0])
		if err != nil {
			return resp.Value{}, err
		}
		if !ok {
			return resp.NullVal(), nil
		}
		return resp.BulkVal(v), nil
	case "SET":
		var ttl time.Duration
		if len(args) == 4 {
			n, _ := strconv.ParseInt(args[3], 10, 64) // validated at check time
			if strings.ToUpper(args[2]) == "EX" {
				ttl = time.Duration(n) * time.Second
			} else {
				ttl = time.Duration(n) * time.Millisecond
			}
		}
		if err := st.SetTx(tx, now, args[0], args[1], ttl); err != nil {
			return resp.Value{}, err
		}
		return resp.SimpleVal("OK"), nil
	case "DEL":
		removed := int64(0)
		for _, key := range args {
			ok, err := st.DelTx(tx, now, key)
			if err != nil {
				return resp.Value{}, err
			}
			if ok {
				removed++
			}
		}
		return resp.IntVal(removed), nil
	case "INCR", "INCRBY":
		delta := int64(1)
		if name == "INCRBY" {
			delta, _ = strconv.ParseInt(args[1], 10, 64) // validated at check time
		}
		n, err := st.IncrTx(tx, now, args[0], delta)
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(n), nil
	case "MGET":
		elems := make([]resp.Value, len(args))
		for i, key := range args {
			v, ok, err := st.GetTx(tx, now, key)
			if errors.Is(err, ErrWrongType) {
				// Redis MGET reports container-typed keys as nil rather
				// than failing the whole read.
				v, ok = "", false
			} else if err != nil {
				return resp.Value{}, err
			}
			if ok {
				elems[i] = resp.BulkVal(v)
			} else {
				elems[i] = resp.NullVal()
			}
		}
		return resp.ArrayVal(elems...), nil
	case "MSET":
		for i := 0; i+1 < len(args); i += 2 {
			if err := st.SetTx(tx, now, args[i], args[i+1], 0); err != nil {
				return resp.Value{}, err
			}
		}
		return resp.SimpleVal("OK"), nil
	case "EXPIRE", "PEXPIRE":
		n, _ := strconv.ParseInt(args[1], 10, 64) // validated at check time
		unit := time.Second
		if name == "PEXPIRE" {
			unit = time.Millisecond
		}
		ok, err := st.ExpireTx(tx, now, args[0], time.Duration(n)*unit)
		if err != nil {
			return resp.Value{}, err
		}
		if ok {
			return resp.IntVal(1), nil
		}
		return resp.IntVal(0), nil
	case "TTL", "PTTL":
		d, ok, err := st.TTLTx(tx, now, args[0])
		if err != nil {
			return resp.Value{}, err
		}
		switch {
		case !ok:
			return resp.IntVal(-2), nil
		case d == NoTTL:
			return resp.IntVal(-1), nil
		case name == "PTTL":
			return resp.IntVal(int64((d + time.Millisecond - 1) / time.Millisecond)), nil
		default:
			return resp.IntVal(int64((d + time.Second - 1) / time.Second)), nil
		}
	case "HSET":
		created := int64(0)
		for i := 1; i+1 < len(args); i += 2 {
			ok, err := st.HSetTx(tx, now, args[0], args[i], args[i+1])
			if err != nil {
				return resp.Value{}, err
			}
			if ok {
				created++
			}
		}
		return resp.IntVal(created), nil
	case "HGET":
		v, ok, err := st.HGetTx(tx, now, args[0], args[1])
		if err != nil {
			return resp.Value{}, err
		}
		if !ok {
			return resp.NullVal(), nil
		}
		return resp.BulkVal(v), nil
	case "HDEL":
		n, err := st.HDelTx(tx, now, args[0], args[1:]...)
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(int64(n)), nil
	case "HGETALL":
		pairs, err := st.HGetAllTx(tx, now, args[0])
		if err != nil {
			return resp.Value{}, err
		}
		elems := make([]resp.Value, 0, 2*len(pairs))
		for _, p := range pairs {
			elems = append(elems, resp.BulkVal(p.K), resp.BulkVal(p.V))
		}
		return resp.ArrayVal(elems...), nil
	case "HLEN":
		n, err := st.HLenTx(tx, now, args[0])
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(int64(n)), nil
	case "HINCRBY":
		delta, _ := strconv.ParseInt(args[2], 10, 64) // validated at check time
		n, err := st.HIncrTx(tx, now, args[0], args[1], delta)
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(n), nil
	case "LPUSH", "RPUSH":
		n, err := st.pushTx(tx, now, args[0], name == "LPUSH", args[1:])
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(int64(n)), nil
	case "LPOP", "RPOP":
		v, ok, err := st.popTx(tx, now, args[0], name == "LPOP")
		if err != nil {
			return resp.Value{}, err
		}
		if !ok {
			return resp.NullVal(), nil
		}
		return resp.BulkVal(v), nil
	case "LLEN":
		n, err := st.LLenTx(tx, now, args[0])
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(int64(n)), nil
	case "LRANGE":
		start, _ := strconv.Atoi(args[1]) // validated at check time
		stop, _ := strconv.Atoi(args[2])
		items, err := st.LRangeTx(tx, now, args[0], start, stop)
		if err != nil {
			return resp.Value{}, err
		}
		elems := make([]resp.Value, len(items))
		for i, v := range items {
			elems[i] = resp.BulkVal(v)
		}
		return resp.ArrayVal(elems...), nil
	case "ZADD":
		added := int64(0)
		for i := 1; i+1 < len(args); i += 2 {
			score, _ := strconv.ParseFloat(args[i], 64) // validated at check time
			ok, err := st.ZAddTx(tx, now, args[0], args[i+1], score)
			if err != nil {
				return resp.Value{}, err
			}
			if ok {
				added++
			}
		}
		return resp.IntVal(added), nil
	case "ZSCORE":
		score, ok, err := st.ZScoreTx(tx, now, args[0], args[1])
		if err != nil {
			return resp.Value{}, err
		}
		if !ok {
			return resp.NullVal(), nil
		}
		return resp.BulkVal(formatScore(score)), nil
	case "ZREM":
		n, err := st.ZRemTx(tx, now, args[0], args[1:]...)
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(int64(n)), nil
	case "ZCARD":
		n, err := st.ZCardTx(tx, now, args[0])
		if err != nil {
			return resp.Value{}, err
		}
		return resp.IntVal(int64(n)), nil
	case "ZRANGE":
		start, _ := strconv.Atoi(args[1]) // validated at check time
		stop, _ := strconv.Atoi(args[2])
		entries, err := st.ZRangeTx(tx, now, args[0], start, stop)
		if err != nil {
			return resp.Value{}, err
		}
		withScores := len(args) == 4
		elems := make([]resp.Value, 0, 2*len(entries))
		for _, ze := range entries {
			elems = append(elems, resp.BulkVal(ze.Member))
			if withScores {
				elems = append(elems, resp.BulkVal(formatScore(ze.Score)))
			}
		}
		return resp.ArrayVal(elems...), nil
	case "TYPE":
		t, ok, err := st.TypeTx(tx, now, args[0])
		if err != nil {
			return resp.Value{}, err
		}
		if !ok {
			return resp.SimpleVal("none"), nil
		}
		return resp.SimpleVal(t), nil
	case "DBSIZE":
		// Whole-store consistent count: every shard's every bucket joins
		// the read set (the long scan the paper's auditor scenario
		// stresses — expensive and proud of it).
		total := int64(0)
		for _, sh := range st.shards {
			b, err := sh.Buckets(tx)
			if err != nil {
				return resp.Value{}, err
			}
			for i := 0; i < b.Len(); i++ {
				head, err := stm.Read(tx, b.At(i))
				if err != nil {
					return resp.Value{}, err
				}
				for e := head; e != nil; e = e.next {
					if !e.dead(now) {
						total++
					}
				}
			}
		}
		return resp.IntVal(total), nil
	default:
		// checkCommand gates every path here; reaching this is a bug.
		return resp.Value{}, fmt.Errorf("kv: unvalidated command %q", name)
	}
}

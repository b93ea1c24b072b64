package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/resp"
	"repro/internal/stm"
	"repro/internal/wal"
)

// Ladder settings: every rung replays the first ladderOps ops of
// connection 0's stream, ladderReps times, one request per round trip.
const (
	ladderOps  = 40_000
	ladderReps = 3
)

// newStore builds an in-process store configured like stmkv's
// defaults (greedy, 16 shards of 8 buckets).
func newStore() *kv.Store {
	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
	return kv.New(s, kv.WithShards(16), kv.WithBuckets(8))
}

// preloadStore writes the keyspace the server's preload writes.
func preloadStore(st *kv.Store, ks *keyspace, durable bool) error {
	var buf []byte
	pairs := make([]kv.KV, 0, preloadBat)
	for b := 0; b < len(ks.keys); b += preloadBat {
		pairs = pairs[:0]
		for _, k := range ks.keys[b:min(b+preloadBat, len(ks.keys))] {
			buf = appendValue(buf[:0], k, 0)
			pairs = append(pairs, kv.KV{K: k, V: string(buf)})
		}
		if err := st.MSet(pairs...); err != nil {
			return err
		}
	}
	if !durable {
		return nil
	}
	pairs = pairs[:0]
	for _, a := range ks.accts {
		pairs = append(pairs, kv.KV{K: a, V: strconv.Itoa(accountStart)})
	}
	if err := st.MSet(pairs...); err != nil {
		return err
	}
	for _, f := range ks.fields {
		if _, err := st.HSet("ledger", f, strconv.Itoa(accountStart)); err != nil {
			return err
		}
	}
	return nil
}

// txOp runs o inside tx through the store's transactional methods. With
// out non-nil it also builds the replies stmkv would send for o.
func txOp(st *kv.Store, tx *stm.Tx, now int64, ks *keyspace, s *stream, o op, out *[]resp.Value) error {
	reply := func(v resp.Value) {
		if out != nil {
			*out = append(*out, v)
		}
	}
	bulk := func(v string, ok bool) resp.Value {
		if !ok {
			return resp.NullVal()
		}
		return resp.BulkVal(v)
	}
	switch o.kind {
	case opGet:
		v, ok, err := st.GetTx(tx, now, ks.keys[o.a])
		if err != nil {
			return err
		}
		reply(bulk(v, ok))
	case opSet:
		key := ks.keys[o.a]
		if err := st.SetTx(tx, now, key, string(appendValue(nil, key, o.n)), 0); err != nil {
			return err
		}
		reply(resp.SimpleVal("OK"))
	case opMGet:
		var elems []resp.Value
		for _, k := range s.mget[o.n : o.n+mgetKeys] {
			v, ok, err := st.GetTx(tx, now, ks.keys[k])
			if err != nil {
				return err
			}
			if out != nil {
				elems = append(elems, bulk(v, ok))
			}
		}
		reply(resp.ArrayVal(elems...))
	case opIncr, opIncrBy:
		key, delta := "", int64(o.n)
		if o.kind == opIncr {
			key, delta = ks.counters[o.a], 1
		} else {
			key = ks.ctrs[0][o.a]
		}
		n, err := st.IncrTx(tx, now, key, delta)
		if err != nil {
			return err
		}
		reply(resp.IntVal(n))
	case opTransfer:
		var elems []resp.Value
		for _, leg := range [2]struct {
			acct  int32
			delta int64
		}{{o.a, -int64(o.n)}, {o.b, int64(o.n)}} {
			n, err := st.IncrTx(tx, now, ks.accts[leg.acct], leg.delta)
			if err != nil {
				return err
			}
			h, err := st.HIncrTx(tx, now, "ledger", ks.fields[leg.acct], leg.delta)
			if err != nil {
				return err
			}
			elems = append(elems, resp.IntVal(n), resp.IntVal(h))
		}
		reply(resp.SimpleVal("OK"))
		for range 4 {
			reply(resp.SimpleVal("QUEUED"))
		}
		reply(resp.ArrayVal(elems...))
	case opLPush:
		n, err := st.LPushTx(tx, now, ks.lists[0][o.a], strconv.Itoa(int(o.n)))
		if err != nil {
			return err
		}
		reply(resp.IntVal(int64(n)))
	case opRPop:
		v, ok, err := st.RPopTx(tx, now, ks.lists[0][o.a])
		if err != nil {
			return err
		}
		reply(bulk(v, ok))
	case opZAdd:
		added, err := st.ZAddTx(tx, now, ks.zsets[0][o.a], ks.members[o.b], float64(o.n))
		if err != nil {
			return err
		}
		n := int64(0)
		if added {
			n = 1
		}
		reply(resp.IntVal(n))
	}
	return nil
}

// storeOp runs o as one Store.Atomically call, the store rung's unit of
// work. With a tracer it records the call, the Atomically span and one
// span per attempt body.
func storeOp(st *kv.Store, ks *keyspace, s *stream, o op, tr *tracer, req uint32, out *[]resp.Value) error {
	call := tr.begin(spanStoreCall, -1, req)
	atom := tr.begin(spanAtomically, call, req)
	var attempt []resp.Value
	err := st.Atomically(func(tx *stm.Tx, now int64) error {
		body := tr.begin(spanAttempt, atom, req)
		defer tr.end(body)
		if out == nil {
			return txOp(st, tx, now, ks, s, o, nil)
		}
		attempt = attempt[:0] // a retried attempt's replies are discarded
		return txOp(st, tx, now, ks, s, o, &attempt)
	})
	tr.end(atom)
	tr.end(call)
	if out != nil {
		*out = append(*out, attempt...)
	}
	return err
}

// pipeListener hands kv.Server in-memory connections: the dispatch
// rung measures decode, dispatch and reply encoding with no syscalls.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.ch <- srv:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// rungClient sends ops one at a time and reads every reply; any error
// reply fails the rung.
func rungClient(c *conn, ks *keyspace, s *stream, ops []op, tr *tracer) error {
	var r reply
	for i, o := range ops {
		sp := tr.begin(spanServerCall, -1, uint32(i))
		c.out = ks.appendOp(c.out, s, 0, o)
		if err := c.flush(); err != nil {
			return err
		}
		for range repliesPerOp(o.kind) {
			if err := c.read(&r); err != nil {
				return err
			}
			if r.kind == '-' {
				return fmt.Errorf("%s: error reply %s", opNames[o.kind], r.describe())
			}
		}
		tr.end(sp)
	}
	return nil
}

// rungCost times run over n ops, returning ns and heap allocations per op.
func rungCost(n int, run func() error) (nsPerOp, allocsPerOp float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	err = run()
	el := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), err
}

// ladderResult holds the rung costs and what the traced pass recorded.
type ladderResult struct {
	storeNs, dispatchNs, tcpNs  float64
	storeAllocs, dispatchAllocs float64
	decodeNs, encodeNs          float64
	engineSelfNs                float64
	spans                       []*tracer
}

// runLadder replays ops at the store, in-memory dispatch and loopback
// TCP rungs of a fresh in-process store, plus the RESP codec over the
// same ops' request and reply bytes, and a traced store pass.
func runLadder(ks *keyspace, s *stream, ops []op, durable bool, epoch time.Time) (*ladderResult, error) {
	st := newStore()
	if err := preloadStore(st, ks, durable); err != nil {
		return nil, err
	}
	// One untimed pass warms the store and records the replies the
	// encode benchmark writes.
	var replies []resp.Value
	for i, o := range ops {
		if err := storeOp(st, ks, s, o, nil, uint32(i), &replies); err != nil {
			return nil, err
		}
	}
	pl := newPipeListener()
	dsrv := kv.NewServer(st)
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tsrv := kv.NewServer(st)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = dsrv.Serve(pl) }() // returns nil once closed
	go func() { defer wg.Done(); _ = tsrv.Serve(tln) }()
	defer func() {
		dsrv.Close()
		tsrv.Close()
		pl.Close()
		wg.Wait()
	}()
	pc, err := pl.dial()
	if err != nil {
		return nil, err
	}
	dc := newConn(pc)
	tc, err := dialConn(tln.Addr().String())
	if err != nil {
		return nil, err
	}
	res := &ladderResult{}
	var store, disp, tcp, storeA, dispA []float64
	for range ladderReps {
		ns, a, err := rungCost(len(ops), func() error {
			for i, o := range ops {
				if err := storeOp(st, ks, s, o, nil, uint32(i), nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("store rung: %w", err)
		}
		store, storeA = append(store, ns), append(storeA, a)
		ns, a, err = rungCost(len(ops), func() error { return rungClient(dc, ks, s, ops, nil) })
		if err != nil {
			return nil, fmt.Errorf("dispatch rung: %w", err)
		}
		disp, dispA = append(disp, ns), append(dispA, a)
		ns, _, err = rungCost(len(ops), func() error { return rungClient(tc, ks, s, ops, nil) })
		if err != nil {
			return nil, fmt.Errorf("tcp rung: %w", err)
		}
		tcp = append(tcp, ns)
	}
	res.storeNs, res.dispatchNs, res.tcpNs = median(store), median(disp), median(tcp)
	res.storeAllocs, res.dispatchAllocs = median(storeA), median(dispA)

	var reqs []byte
	for _, o := range ops {
		reqs = ks.appendOp(reqs, s, 0, o)
	}
	var dec, enc []float64
	for range ladderReps {
		cmds := 0
		t := time.Now()
		rd := resp.NewReader(bytes.NewReader(reqs))
		for {
			_, err := rd.ReadCommand()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			cmds++
		}
		dec = append(dec, float64(time.Since(t).Nanoseconds())/float64(cmds))
		w := resp.NewWriter(io.Discard)
		t = time.Now()
		for _, v := range replies {
			w.Value(v)
			if err := w.Flush(); err != nil {
				return nil, fmt.Errorf("encode: %w", err)
			}
		}
		enc = append(enc, float64(time.Since(t).Nanoseconds())/float64(len(replies)))
	}
	res.decodeNs, res.encodeNs = median(dec), median(enc)

	// The traced pass: spans around each store call, its Atomically and
	// each attempt body, then around each batch into the dispatch rung.
	tr := newTracers(2, epoch, 1)
	for i, o := range ops {
		if err := storeOp(st, ks, s, o, tr[0], uint32(i), nil); err != nil {
			return nil, err
		}
	}
	if err := rungClient(dc, ks, s, ops, tr[1]); err != nil {
		return nil, err
	}
	tt := totals(tr[:1])
	res.engineSelfNs = ratio(float64(tt.self[spanAtomically]), float64(tt.count[spanAtomically]))
	res.spans = tr
	return res, nil
}

// containerCosts times the durable stream's container ops through the
// store's public methods without a WAL: LPUSH/RPOP (Deque), ZADD (OMap)
// and the transfers' HINCRBY ledger legs (Table).
func containerCosts(ks *keyspace, ops []op) (deque, omap, table float64, err error) {
	st := newStore()
	if err := preloadStore(st, ks, true); err != nil {
		return 0, 0, 0, err
	}
	var ns, count [3]int64
	for _, o := range ops {
		t := time.Now()
		which := -1
		switch o.kind {
		case opLPush:
			which = 0
			_, err = st.LPush(ks.lists[0][o.a], strconv.Itoa(int(o.n)))
		case opRPop:
			which = 0
			_, _, err = st.RPop(ks.lists[0][o.a])
		case opZAdd:
			which = 1
			_, err = st.ZAdd(ks.zsets[0][o.a], ks.members[o.b], float64(o.n))
		case opTransfer:
			which = 2
			if _, err = st.HIncr("ledger", ks.fields[o.a], -int64(o.n)); err == nil {
				_, err = st.HIncr("ledger", ks.fields[o.b], int64(o.n))
			}
			count[2]++ // two calls
		}
		if err != nil {
			return 0, 0, 0, err
		}
		if which >= 0 {
			ns[which] += int64(time.Since(t))
			count[which]++
		}
	}
	return ratio(float64(ns[0]), float64(count[0])), ratio(float64(ns[1]), float64(count[1])),
		ratio(float64(ns[2]), float64(count[2])), nil
}

// walOps is the write set stmkv logs for o (INCRBY results are
// absolute values; a representative width stands in for them).
func walOps(ks *keyspace, ci int, o op) []wal.Op {
	switch o.kind {
	case opSet:
		key := ks.keys[o.a]
		return []wal.Op{{Key: key, Val: string(appendValue(nil, key, o.n)), Kind: wal.KindString}}
	case opIncrBy:
		return []wal.Op{{Key: ks.ctrs[ci][o.a], Val: "100000", Kind: wal.KindString}}
	case opTransfer:
		return []wal.Op{
			{Key: ks.accts[o.a], Val: "1000", Kind: wal.KindString},
			{Key: ks.accts[o.b], Val: "1000", Kind: wal.KindString},
			{Key: "ledger", Field: ks.fields[o.a], Val: "1000", Kind: wal.KindHash},
			{Key: "ledger", Field: ks.fields[o.b], Val: "1000", Kind: wal.KindHash},
		}
	case opLPush:
		return []wal.Op{{Key: ks.lists[ci][o.a], Val: strconv.Itoa(int(o.n)), Kind: wal.KindList, Front: true}}
	case opRPop:
		return []wal.Op{{Key: ks.lists[ci][o.a], Kind: wal.KindList, Del: true}}
	case opZAdd:
		return []wal.Op{{Key: ks.zsets[ci][o.a], Field: ks.members[o.b], Val: strconv.Itoa(int(o.n)), Kind: wal.KindZSet}}
	}
	return nil
}

// walAckFor is how long the in-process WAL ack pass runs.
const walAckFor = 3 * time.Second

// durableLayers measures the container and WAL layers in-process with
// kv-durable-write's op stream for the seed, so every kv workload's
// traced run reports them: the container rung, then a log in dir
// preloaded with the durable keyspace, the ack pass appending each
// connection's write sets at the open loop's schedule, the log's
// batching and size, and its recovery into a fresh store.
func durableLayers(cfg *config, rep *report, dir string, epoch time.Time) ([]*tracer, error) {
	ks := newKeyspace(kvKeys, kvConns, true)
	streams, err := durableStreams(cfg.seed, kvConns, ladderOps, kvKeys)
	if err != nil {
		return nil, err
	}
	dq, om, tb, err := containerCosts(ks, streams[0].ops)
	if err != nil {
		return nil, fmt.Errorf("container rung: %w", err)
	}
	rep.set("container.deque_ns_per_op", dq)
	rep.set("container.omap_ns_per_op", om)
	rep.set("container.table_ns_per_op", tb)

	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	var user int64
	for b := 0; b < len(ks.keys); b += preloadBat {
		var ops []wal.Op
		for i, key := range ks.keys[b:min(b+preloadBat, len(ks.keys))] {
			ops = append(ops, walOps(ks, 0, op{kind: opSet, a: int32(b + i)})...)
			user += int64(len(key) + valueSize)
		}
		if err := l.Append(ops).Wait(); err != nil {
			l.Close()
			return nil, err
		}
	}
	before := l.Stats()
	tr := newTracers(kvConns, epoch, 1)
	lat, acked, err := walAck(l, ks, streams, time.Second*kvConns/durableRate, tr)
	after := l.Stats()
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("wal ack pass: %w", err)
	}
	p50, err := lat.quantile(0.50)
	if err != nil {
		return nil, err
	}
	p99, err := lat.quantile(0.99)
	if err != nil {
		return nil, err
	}
	records := float64(after.Records - before.Records)
	rep.set("wal.ack_wait_us_p50", p50/1e3)
	rep.set("wal.ack_wait_us_p99", p99/1e3)
	rep.set("wal.fsyncs_per_record", ratio(float64(after.Fsyncs-before.Fsyncs), records))
	rep.set("wal.records_per_batch", ratio(records, float64(after.Batches-before.Batches)))
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	rep.set("wal.bytes_per_user_byte", ratio(float64(size), float64(user+acked)))
	var rs []float64
	for range 5 {
		s, err := recoverCopy(dir, dir+"-copy")
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		rs = append(rs, s)
	}
	rep.set("wal.recover_s", median(rs))
	rep.note("container and wal layers: in-process, with kv-durable-write's op stream for this seed: %d ops through the store without a log; a log preloaded with %d keys, then %d appends over %v at the open loop's schedule, recovered 5 times",
		len(streams[0].ops), len(ks.keys), len(lat), walAckFor)
	return tr, nil
}

// walAck appends each connection's write sets to l as Poisson arrivals
// at the open loop's mean period, for walAckFor, and times
// Log.Append to Ticket.Wait. It returns the latencies and the user
// payload acked.
func walAck(l *wal.Log, ks *keyspace, streams []stream, period time.Duration, tr []*tracer) (latencies, int64, error) {
	start := time.Now()
	per := make([]latencies, len(streams))
	user := make([]int64, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for ci := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &streams[ci]
			due := start.Add(time.Duration(ci) * period / time.Duration(len(streams)))
			for i, o := range s.ops {
				if due.Sub(start) >= walAckFor {
					return
				}
				if wait := time.Until(due); wait > 0 {
					ts := syscall.NsecToTimespec(int64(wait))
					_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
				}
				ops := walOps(ks, ci, o)
				t := time.Now()
				sp := tr[ci].begin(spanWALAppend, -1, uint32(i))
				if err := l.Append(ops).Wait(); err != nil {
					errs[ci] = err
					return
				}
				tr[ci].end(sp)
				per[ci] = append(per[ci], int64(time.Since(t)))
				user[ci] += ks.userBytes(ci, o)
				due = due.Add(time.Duration(s.gaps[i%len(s.gaps)] * float64(period)))
			}
		}()
	}
	wg.Wait()
	var all latencies
	var acked int64
	for ci := range per {
		if errs[ci] != nil {
			return nil, 0, errs[ci]
		}
		all = append(all, per[ci]...)
		acked += user[ci]
	}
	return all, acked, nil
}

// recoverCopy times wal.Recover plus Store.Apply into a fresh store on a
// copy of dir, so the server's own directory is left as it crashed.
func recoverCopy(dir, copyTo string) (float64, error) {
	if err := copyDir(dir, copyTo); err != nil {
		return 0, err
	}
	defer os.RemoveAll(copyTo)
	st := newStore()
	t := time.Now()
	if _, err := wal.Recover(filepath.Clean(copyTo), st.Apply); err != nil {
		return 0, err
	}
	return time.Since(t).Seconds(), nil
}

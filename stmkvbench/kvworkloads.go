package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Shape of both kv workloads.
const (
	// kvKeys is the preloaded keyspace: 20k keys, not the 100k a
	// production-sized store would hold. This hides most of the cost
	// the server's TTL sweeper and collector add with the heap: the
	// sweeper scans every shard twice a second although no key has a
	// TTL, and at 100k keys the server's heap passed 100 MB, its
	// collections marked for about a second of every 2.5, and over
	// nine closed-loop runs of the same code its CPU per op ranged
	// 16 to 33 us and its p99 15 to 26 ms; no regression bound holds
	// on that. A fix to either shows here only in part.
	kvKeys        = 20_000
	kvConns       = 2       // nproc of the reference box: one connection per CPU
	pipelineDepth = 16      // kv-pipelined-read: requests in flight per connection
	pipelinedOps  = 1 << 18 // per connection, replayed cyclically
	setupRepeats  = 11      // setup_s is the median of this many full set-ups
	subWindow     = 250 * time.Millisecond
)

// kv-durable-write runs an open loop at a fixed rate below capacity.
// Its capacity was measured with the same streams in a closed loop, 16
// requests in flight per connection, on a 2-vCPU KVM guest with an
// ext4 virtio disk: the server acks each connection's requests one
// group commit at a time, so capacity is bounded by the 500 µs linger
// plus fsync, not by CPU: 1,165 to 1,367 acked ops/s over five runs,
// one outlier at 700. The rate is 40% of 1,300, so a slow fsync drains
// before the next one without a growing backlog.
const (
	durableCapacity = 1300
	durableRate     = durableCapacity * 2 / 5
)

// durableRestarts is how many times kv-durable-write's server is
// killed and restarted on its data directory after the run, each
// restart replaying the whole log and audited.
const durableRestarts = 5

// launches starts n servers one after another on the data directory,
// timing each from launch to its first PING reply, runs check on it
// and kills it. A check's error is returned as it is.
func (e *kvEnv) launches(n int, check func(*conn) error) ([]float64, error) {
	var times []float64
	for range n {
		t := time.Now()
		srv, err := startServer(e.cfg.server, e.cpus.server, e.serverArgs()...)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		c, err := pingReady(srv.addr)
		if err != nil {
			srv.kill()
			return nil, fmt.Errorf("restart: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		err = check(c)
		c.c.Close()
		srv.kill()
		if err != nil {
			return nil, err
		}
	}
	return times, nil
}

// kvEnv is one kv workload run: its keyspace, streams, server and
// connections.
type kvEnv struct {
	cfg     *config
	rep     *report
	durable bool
	ks      *keyspace
	streams []stream
	srv     *server
	conns   []*conn
	dir     string   // durable data directory
	cpus    cpuSplit // where the server and this process run
}

func (e *kvEnv) serverArgs() []string {
	if e.durable {
		return []string{"-data", e.dir}
	}
	return nil
}

func (e *kvEnv) closeConns() {
	for _, c := range e.conns {
		c.c.Close()
	}
	e.conns = nil
}

// setup launches a fresh server and preloads it, n times, keeping the
// last, and returns the times from launch to preloaded.
func (e *kvEnv) setup(n int) ([]float64, error) {
	var times []float64
	for range n {
		e.stop()
		if e.durable {
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		srv, err := startServer(e.cfg.server, e.cpus.server, e.serverArgs()...)
		if err != nil {
			return nil, err
		}
		e.srv = srv
		for range kvConns {
			c, err := pingReady(srv.addr)
			if err != nil {
				return nil, err
			}
			e.conns = append(e.conns, c)
		}
		if err := preload(e.conns, e.ks); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if e.durable {
			var r reply
			args := []string{"MSET"}
			for _, a := range e.ks.accts {
				args = append(args, a, strconv.Itoa(accountStart))
			}
			if err := e.conns[0].must(&r, args...); err != nil {
				return nil, err
			}
			args = []string{"HSET", "ledger"}
			for _, f := range e.ks.fields {
				args = append(args, f, strconv.Itoa(accountStart))
			}
			if err := e.conns[0].must(&r, args...); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, nil
}

func (e *kvEnv) stop() {
	e.closeConns()
	if e.srv != nil {
		e.srv.kill()
		e.srv = nil
	}
}

// phaseResult is one measured phase of the main loop.
type phaseResult struct {
	loop       loopResult // totals over the connections
	recs       []*recorder
	snaps      []subSnap // per sub-window
	infoBefore map[string]float64
	infoAfter  map[string]float64
	m          subMetrics
}

// ops is the replies received over the whole window.
func (pr *phaseResult) ops() float64 {
	var n int64
	for _, r := range pr.recs {
		for _, o := range r.ops {
			n += o
		}
	}
	return float64(n)
}

// endToEnd records the end-to-end metrics of a phase.
func (e *kvEnv) endToEnd(pr *phaseResult) {
	e.rep.set("throughput_ops_s", pr.m.throughput)
	e.rep.set("latency_p50_us", pr.m.p50/1e3)
	e.rep.set("latency_p99_us", pr.m.p99/1e3)
	e.rep.set("cpu_us_per_op", pr.m.cpuPerOp)
	e.rep.attempted += pr.loop.attempted
	e.rep.failed += pr.loop.failed
	noteSubs(e.rep, pr.snaps, pr.m)
	if e.durable {
		e.rep.note("server wal after the phase: fsync p50 %v us, p99 %v us (log2 buckets), %v ops per batch",
			pr.infoAfter["wal.fsync_p50_usec"], pr.infoAfter["wal.fsync_p99_usec"], pr.infoAfter["wal.ops_per_batch"])
	}
}

// layers records the per-layer metrics a phase measured from /proc and
// INFO, over the whole window.
func (e *kvEnv) layers(pr *phaseResult) {
	ops := pr.ops()
	srv, self := sum(pr.snaps, false), sum(pr.snaps, true)
	e.rep.set("server.write_syscalls_per_op", ratio(float64(srv.syscW), ops))
	e.rep.set("server.read_syscalls_per_op", ratio(float64(srv.syscR), ops))
	e.rep.set("server.ctx_switches_per_op", ratio(float64(srv.ctxSwitch), ops))
	e.rep.set("loadgen.cpu_us_per_op", ratio(self.cpuMicros(), ops))
	d := func(k string) float64 { return pr.infoAfter[k] - pr.infoBefore[k] }
	commits := d("stm.commits")
	e.rep.set("stm.commits_per_attempt", ratio(commits, commits+d("stm.aborts")+d("contention.aborts_user_error")))
	e.rep.set("stm.aborts_validation_per_commit", ratio(d("contention.aborts_validation"), commits))
	e.rep.set("stm.aborts_enemy_per_commit", ratio(d("contention.aborts_enemy"), commits))
	e.rep.set("stm.aborts_cas_race_per_commit", ratio(d("contention.aborts_cas_race"), commits))
	e.rep.set("stm.opens_per_commit", ratio(d("stm.opens"), commits))
	e.rep.set("stm.backoff_ns_per_commit", ratio(d("stm.backoff_ns"), commits))
	e.rep.set("core.wait_ns_per_commit", ratio(d("stm.wait_ns"), commits))
	e.rep.set("core.conflicts_per_commit", ratio(d("stm.conflicts"), commits))
	e.rep.set("core.enemy_aborts_per_commit", ratio(d("stm.enemy_aborts"), commits))
	lat, _ := pr.loop.lateness.quantile(0.99) // zero for a closed loop, which keeps no schedule
	e.rep.set("loadgen.lateness_p99_us", lat/1e3)
}

// runPhases runs the main loop: one untraced phase and, with --trace
// 1, a traced phase after it (nil otherwise) whose spans tr holds. Each
// connection's stream continues where the previous phase left it.
func (e *kvEnv) runPhases(loop func(ci, first int, p phase) loopResult) (untraced, traced *phaseResult, tr []*tracer, err error) {
	next := make([]int, kvConns)
	untraced, err = e.phase(newPhase(e.cfg.window(), subWindow, nil), next, loop)
	if err != nil || !e.cfg.trace {
		return untraced, nil, nil, err
	}
	tr = newTracers(kvConns, time.Now(), 1)
	traced, err = e.phase(newPhase(e.cfg.window(), subWindow, tr), next, loop)
	return untraced, traced, tr, err
}

// phase runs loop on every connection for one phase while sampling the
// server's and this process's counters at each sub-window edge, and
// INFO before and after.
func (e *kvEnv) phase(p phase, next []int, loop func(ci, first int, p phase) loopResult) (*phaseResult, error) {
	pr := &phaseResult{}
	var err error
	if pr.infoBefore, err = infoAll(e.conns[0], e.durable); err != nil {
		return nil, err
	}
	var per []loopResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		pr.loop, pr.recs, per = runConns(kvConns, func(ci int) loopResult { return loop(ci, next[ci], p) })
	}()
	pr.snaps, err = procSubs(e.srv.pid(), p)
	<-done
	if err != nil {
		return nil, err
	}
	if pr.loop.err != nil {
		return nil, pr.loop.err
	}
	for ci, r := range per {
		next[ci] = r.next
	}
	if pr.infoAfter, err = infoAll(e.conns[0], e.durable); err != nil {
		return nil, err
	}
	// A --trace 1 run reports no p99, only p50s for the tracing overhead.
	if pr.m, err = summarize(pr.recs, pr.snaps, !e.cfg.trace); err != nil {
		return nil, err
	}
	return pr, nil
}

func runPipelined(cfg *config, rep *report) error { return runKV(cfg, rep, false) }

func runDurable(cfg *config, rep *report) error { return runKV(cfg, rep, true) }

// runKV runs one kv workload end to end: set-up, the main loop, the
// audits, the kill and restart, and with --trace 1 the layer passes.
func runKV(cfg *config, rep *report, durable bool) error {
	e := &kvEnv{cfg: cfg, rep: rep, durable: durable, ks: newKeyspace(kvKeys, kvConns, durable),
		dir: filepath.Join(cfg.workdir, fmt.Sprintf("data-%d", os.Getpid()))}
	defer func() {
		e.stop()
		os.RemoveAll(e.dir)
	}()
	cpus, unpin, err := pinClient()
	if err != nil {
		return fmt.Errorf("pin to a CPU: %w", err)
	}
	defer unpin()
	e.cpus = cpus
	if cpus.server < 0 {
		rep.note("fewer than two CPUs: the server and this process share them")
	} else {
		rep.param("cpus", fmt.Sprintf("server on CPU %d with GOMAXPROCS %d, generator on CPU %d with GOMAXPROCS 1", cpus.server, runtime.NumCPU(), cpus.client))
	}
	phases := 1
	if cfg.trace {
		phases = 2
	}
	rep.param("keys", kvKeys)
	rep.param("value_bytes", valueSize)
	rep.param("connections", kvConns)
	rep.param("key_dist", "zipf(0.99)")
	if durable {
		n := max(ladderOps, phases*int((warmup+cfg.window())*durableRate/kvConns/time.Second+2))
		e.streams, err = durableStreams(cfg.seed, kvConns, n, kvKeys)
		rep.param("rate_ops_s", durableRate)
		rep.param("rate_fraction_of_capacity", float64(durableRate)/durableCapacity)
		rep.param("capacity_ops_s", durableCapacity)
		rep.param("mix", "40% SET, 20% INCRBY, 20% MULTI/EXEC transfer, 5% LPUSH, 5% RPOP, 10% ZADD")
		rep.param("flush_policy", "stmkv -data default: 500us group-commit linger, one fsync per batch")
		rep.param("loop", "open")
	} else {
		e.streams, err = pipelinedStreams(cfg.seed, kvConns, pipelinedOps, kvKeys)
		rep.param("mix", "80% GET, 10% SET, 5% MGET x8, 5% INCR")
		rep.param("loop", fmt.Sprintf("closed, %d in flight per connection", pipelineDepth))
	}
	if err != nil {
		return err
	}
	// The set-ups sample two periods of the host tens of seconds apart,
	// half before the main loop and half after: on a shared host the
	// time to launch a process shifted by up to a third between such
	// periods. The main loop runs on the last set-up of the first half.
	setups, err := e.setup(setupRepeats/2 + 1)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if durable {
		// Write back the set-ups' logs now, so the kernel's flush of
		// them does not land in the measured window's fsyncs.
		syscall.Sync()
	}

	var chk []checker
	var incrs []*pipelinedCheck
	var models []*durableModel
	for ci := range kvConns {
		if durable {
			models = append(models, newDurableModel(e.ks, ci))
			chk = append(chk, models[ci])
		} else {
			incrs = append(incrs, &pipelinedCheck{ks: e.ks})
			chk = append(chk, incrs[ci])
		}
	}
	period := time.Second * kvConns / durableRate
	loop := func(ci, first int, p phase) loopResult {
		if !durable {
			return closedLoop(e.conns[ci], &e.streams[ci], e.ks, ci, chk[ci], pipelineDepth, first, p)
		}
		offset := time.Duration(ci) * period / kvConns
		return openLoop(e.conns[ci], &e.streams[ci], e.ks, ci, chk[ci], period, offset, first, p)
	}
	untraced, traced, spans, err := e.runPhases(loop)
	if err != nil {
		if isViolation(err) {
			rep.violate("%v", err)
			return nil
		}
		return fmt.Errorf("main loop: %w", err)
	}
	e.endToEnd(untraced)
	e.layers(untraced)
	snap, err := readProc(e.srv.pid())
	if err != nil {
		return err
	}
	rep.set("rss_peak_mb", float64(snap.peakRSSKiB)/1024)

	// Audit the live server; kill the durable one and audit every restart.
	audit := func(c *conn) error {
		if durable {
			return auditDurable(c, e.ks, models)
		}
		var n int64
		for _, pc := range incrs {
			n += pc.incrs
		}
		return auditCounters(c, e.ks, e.streams, n)
	}
	if err := audit(e.conns[0]); err != nil {
		return e.auditFailed("after the run", err)
	}
	e.stop()
	if durable {
		restarts, err := e.launches(durableRestarts, audit)
		if err != nil {
			return e.auditFailed("after a kill and restart", err)
		}
		rep.note("recovery_s: %.4f s, median of %d restarts of stmkv -data on the killed run's directory, launch to first PING reply; each restart is audited (not a BENCHMARK.json metric: kv-durable-write is not gated)", median(restarts), len(restarts))
	}
	more, err := e.setup(setupRepeats - len(setups))
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	e.stop()
	setups = append(setups, more...)
	rep.set("setup_s", median(setups))
	extra := ""
	if durable {
		extra = ", plus the accounts and their ledger hash, each request fsynced"
	}
	rep.note("setup_s: median of %d set-ups, each a fresh stmkv launch to PING plus a preload of %d keys x %d B in MSET batches of %d pairs over %d connections%s, half before the main loop and half after",
		len(setups), len(e.ks.keys), valueSize, preloadBat, kvConns, extra)
	if !cfg.trace {
		return nil
	}
	return e.layerPasses(untraced, traced, spans)
}

func isViolation(err error) bool { return errors.Is(err, errViolation) }

// auditFailed records a violation, or passes a transport error up.
func (e *kvEnv) auditFailed(when string, err error) error {
	if isViolation(err) {
		e.rep.violate("audit %s: %v", when, err)
		return nil
	}
	return fmt.Errorf("audit %s: %w", when, err)
}

// layerPasses runs the --trace 1 passes after the main loop: the
// ladder, the codec, and for the durable workload the container rung,
// the WAL ack pass; then it writes every span recorded.
func (e *kvEnv) layerPasses(untraced, traced *phaseResult, spans []*tracer) error {
	rep := e.rep
	rep.set("trace.overhead_pct", 100*(traced.m.p50-untraced.m.p50)/untraced.m.p50)
	rep.note("traced phase: %.0f ops/s, p50 %.1f us; untraced phase: %.0f ops/s, p50 %.1f us",
		traced.m.throughput, traced.m.p50/1e3, untraced.m.throughput, untraced.m.p50/1e3)
	epoch := time.Now()
	s := &e.streams[0]
	ops := s.ops[:min(ladderOps, len(s.ops))]
	lr, err := runLadder(e.ks, s, ops, e.durable, epoch)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	rep.set("kv.store_ns_per_op", lr.storeNs)
	rep.set("kv.dispatch_ns_per_op", lr.dispatchNs)
	rep.set("kv.tcp_ns_per_op", lr.tcpNs)
	rep.set("kv.dispatch_self_ns_per_op", lr.dispatchNs-lr.storeNs)
	rep.set("wire.self_ns_per_op", lr.tcpNs-lr.dispatchNs)
	rep.set("kv.store_allocs_per_op", lr.storeAllocs)
	rep.set("kv.dispatch_allocs_per_op", lr.dispatchAllocs)
	rep.set("resp.decode_ns_per_cmd", lr.decodeNs)
	rep.set("resp.encode_ns_per_reply", lr.encodeNs)
	rep.set("stm.engine_self_ns_per_commit", lr.engineSelfNs)
	rep.note("ladder: %d ops of connection 0's stream per rung, one request per round trip, median of %d passes", len(ops), ladderReps)
	spans = append(spans, lr.spans...)
	wtr, err := durableLayers(e.cfg, rep, e.dir+"-wal", epoch)
	if err != nil {
		return err
	}
	spans = append(spans, wtr...)
	return writeSpanFile(e.cfg, e.rep, spans)
}

// writeSpanFile writes the run's spans under <workdir>/spans and notes
// where, with the derived self times.
func writeSpanFile(cfg *config, rep *report, spans []*tracer) error {
	dir := filepath.Join(cfg.workdir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	tt := totals(spans)
	for n := range numSpanNames {
		if tt.count[n] > 0 {
			rep.note("spans %-15s count %8d  mean %10.0f ns  self mean %10.0f ns", spanNames[n], tt.count[n],
				ratio(float64(tt.total[n]), float64(tt.count[n])), ratio(float64(tt.self[n]), float64(tt.count[n])))
		}
	}
	rep.note("spans written to %s (%d dropped past the per-goroutine cap)", path, tt.dropped)
	return nil
}

// noteSubs reports which sub-windows the end-to-end numbers were taken
// over and how much CPU time the hypervisor stole.
func noteSubs(rep *report, snaps []subSnap, m subMetrics) {
	var steal float64
	for _, s := range snaps {
		steal += s.steal / float64(len(snaps))
	}
	rep.note("throughput, latency and cpu_us_per_op: over the %d of %d sub-windows of %v with the least steal (%.3f of CPU time stolen in them, %.3f over the window), %d latency samples",
		len(m.kept), len(snaps), snaps[0].dur.Round(time.Millisecond), m.steal, steal, m.samples)
}

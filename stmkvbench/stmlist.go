package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/stm"
)

// stm-list is the paper's list application (Figure 1): a sorted linked
// list over keys [0, 256) seeded with half of them, 100% updates, half
// inserts and half removes, under greedy.
const (
	listKeyRange  = 256
	listThreads   = 2
	listStreamOps = 1 << 18
	// Building the list takes well under a millisecond, so setup_s is
	// taken over many builds, spread over half a second or more by a
	// pause between builds so that one burst of interference cannot
	// slow all of them.
	listBuilds = 501
	listPause  = time.Millisecond
	// The traced phase records the spans of one op in listTraceEvery,
	// which keeps a whole phase under the tracers' cap.
	listTraceEvery = 8
)

// listOp packs a key and whether to insert it.
type listOp uint16

func (o listOp) key() int     { return int(o >> 1) }
func (o listOp) insert() bool { return o&1 == 1 }

// listEnv is one stm-list run.
type listEnv struct {
	cfg     *config
	rep     *report
	initial []int
	streams [][]listOp
	s       *stm.STM
	list    *intset.List
	size    int // keys in the list, as the committed results account for them
}

// buildList makes a fresh engine and list holding keys, returning its size.
func buildList(keys []int) (*stm.STM, *intset.List, int, error) {
	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")))
	l := intset.NewList()
	size := 0
	for _, k := range keys {
		var added bool
		err := s.Atomically(func(tx *stm.Tx) error {
			var err error
			added, err = l.Insert(tx, k)
			return err
		})
		if err != nil {
			return nil, nil, 0, err
		}
		if added {
			size++
		}
	}
	return s, l, size, nil
}

// listResult is one goroutine's tally for a phase.
type listResult struct {
	rec               recorder
	attempted         int64
	inserted, removed int64
	next              int
	err               error
}

// loop runs one goroutine's ops in a closed loop until the phase ends.
func (e *listEnv) loop(g, first int, p phase) listResult {
	res := listResult{rec: newRecorder(p), next: first}
	tr := p.tracer(g)
	ops := e.streams[g]
	for {
		start := time.Now()
		if !start.Before(p.end) {
			return res
		}
		o := ops[res.next%len(ops)]
		req := uint32(res.next)
		res.next++
		res.attempted++
		call := tr.begin(spanRequest, -1, req)
		atom := tr.begin(spanAtomically, call, req)
		var ok bool
		err := e.s.Atomically(func(tx *stm.Tx) error {
			body := tr.begin(spanAttempt, atom, req)
			waited := tx.WaitNs() // cumulative over the transaction's attempts
			defer func() {
				tr.setWait(body, tx.WaitNs()-waited)
				tr.end(body)
			}()
			var err error
			if o.insert() {
				ok, err = e.list.Insert(tx, o.key())
			} else {
				ok, err = e.list.Remove(tx, o.key())
			}
			return err
		})
		tr.end(atom)
		tr.end(call)
		done := time.Now()
		if err != nil {
			res.err = err
			return res
		}
		switch {
		case ok && o.insert():
			res.inserted++
		case ok:
			res.removed++
		}
		res.rec.reply(done)
		res.rec.sample(done, int64(done.Sub(start)))
	}
}

// listSubWindow is the length of a phase's sub-windows.
const listSubWindow = subWindow

// listPhase is one measured phase.
type listPhase struct {
	m          subMetrics
	attempted  int64
	snaps      []subSnap
	stats      stm.Stats // engine counters over the window
	peakRSSKiB int64     // VmHWM when the loops ended, before summarizing
	spans      []*tracer
}

func (e *listEnv) phase(tr []*tracer, next []int) (*listPhase, error) {
	p := newPhase(e.cfg.window(), listSubWindow, tr)
	per := make([]listResult, listThreads)
	var wg sync.WaitGroup
	for g := range listThreads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[g] = e.loop(g, next[g], p)
		}()
	}
	lp := &listPhase{spans: tr}
	time.Sleep(time.Until(p.t0))
	st0 := e.s.TotalStats()
	snaps, err := procSubs(0, p)
	st1 := e.s.TotalStats()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	// The peak is read before summarize pools the samples: the engine
	// shares this process, and the pool is the benchmark's, not its.
	end, err := readProc(0)
	if err != nil {
		return nil, err
	}
	lp.peakRSSKiB = end.peakRSSKiB
	lp.snaps = snaps
	lp.stats = statsDelta(st0, st1)
	var recs []*recorder
	for g := range per {
		r := &per[g]
		if r.err != nil {
			return nil, r.err
		}
		next[g] = r.next
		lp.attempted += r.attempted
		e.size += int(r.inserted - r.removed)
		recs = append(recs, &r.rec)
	}
	if lp.m, err = summarize(recs, snaps, !e.cfg.trace); err != nil {
		return nil, err
	}
	return lp, nil
}

func statsDelta(a, b stm.Stats) stm.Stats {
	return stm.Stats{
		Commits:          b.Commits - a.Commits,
		Aborts:           b.Aborts - a.Aborts,
		AbortsEnemy:      b.AbortsEnemy - a.AbortsEnemy,
		AbortsValidation: b.AbortsValidation - a.AbortsValidation,
		AbortsCASRace:    b.AbortsCASRace - a.AbortsCASRace,
		AbortsUser:       b.AbortsUser - a.AbortsUser,
		Conflicts:        b.Conflicts - a.Conflicts,
		EnemyAborts:      b.EnemyAborts - a.EnemyAborts,
		Opens:            b.Opens - a.Opens,
		WaitNs:           b.WaitNs - a.WaitNs,
		BackoffNs:        b.BackoffNs - a.BackoffNs,
	}
}

// audit walks the list: keys strictly ascending, inside the key range,
// and as many as the committed inserts and removes leave.
func (e *listEnv) audit() error {
	keys, err := stm.Atomic(e.s, func(tx *stm.Tx) ([]int, error) { return e.list.Keys(tx) })
	if err != nil {
		return err
	}
	for i, k := range keys {
		if k < 0 || k >= listKeyRange || (i > 0 && keys[i-1] >= k) {
			return violation("list key %d at position %d out of order or range", k, i)
		}
	}
	if len(keys) != e.size {
		return violation("list holds %d keys, initial size plus successful inserts minus removes is %d", len(keys), e.size)
	}
	return nil
}

// build times n builds of a fresh engine and list from the initial
// keys, keeping the last in e.
func (e *listEnv) build(n int) ([]float64, error) {
	var times []float64
	runtime.GC() // start the timed builds from the same heap state every time
	for range n {
		time.Sleep(listPause)
		t := time.Now()
		s, l, size, err := buildList(e.initial)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
		e.s, e.list, e.size = s, l, size
	}
	return times, nil
}

func runSTMList(cfg *config, rep *report) error {
	e := &listEnv{cfg: cfg, rep: rep}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x1157))
	e.initial = rng.Perm(listKeyRange)[:listKeyRange/2]
	for g := range listThreads {
		r := rand.New(rand.NewPCG(cfg.seed, uint64(g)))
		ops := make([]listOp, listStreamOps)
		for i := range ops {
			ops[i] = listOp(r.IntN(listKeyRange)<<1 | r.IntN(2))
		}
		e.streams = append(e.streams, ops)
	}
	rep.param("structure", "intset.List (Figure 1)")
	rep.param("manager", "greedy")
	rep.param("goroutines", listThreads)
	rep.param("loop", "closed")
	rep.param("key_range", listKeyRange)
	rep.param("initial_keys", listKeyRange/2)
	rep.param("mix", "100% updates: 50% insert, 50% remove, keys uniform")

	// setup_s samples two periods of the shared host tens of seconds
	// apart, as the kv workloads' does: half its builds run before the
	// main loop and half after. The main loop runs on the last build of
	// the first half.
	builds, err := e.build(listBuilds/2 + 1)
	if err != nil {
		return err
	}

	next := make([]int, listThreads)
	untraced, err := e.phase(nil, next)
	if err != nil {
		return e.failed(err)
	}
	var traced *listPhase
	if cfg.trace {
		if traced, err = e.phase(newTracers(listThreads, time.Now(), listTraceEvery), next); err != nil {
			return e.failed(err)
		}
	}
	rep.set("throughput_ops_s", untraced.m.throughput)
	rep.set("latency_p50_us", untraced.m.p50/1e3)
	rep.set("latency_p99_us", untraced.m.p99/1e3)
	rep.set("cpu_us_per_op", untraced.m.cpuPerOp)
	rep.set("rss_peak_mb", float64(untraced.peakRSSKiB)/1024)
	noteSubs(rep, untraced.snaps, untraced.m)
	rep.note("cpu_us_per_op and rss_peak_mb are this process's: the engine runs in-process")
	rep.attempted = untraced.attempted
	if traced != nil {
		rep.attempted += traced.attempted
	}

	if err := e.audit(); err != nil {
		return e.failed(err)
	}
	more, err := e.build(listBuilds - len(builds))
	if err != nil {
		return err
	}
	builds = append(builds, more...)
	rep.set("setup_s", median(builds))
	rep.note("setup_s: median of %d builds of a fresh engine and list from %d keys in random order, half before the main loop and half after", len(builds), len(e.initial))

	st := untraced.stats
	commits := float64(st.Commits)
	rep.set("stm.commits_per_attempt", ratio(commits, commits+float64(st.Aborts+st.AbortsUser)))
	rep.set("stm.aborts_validation_per_commit", ratio(float64(st.AbortsValidation), commits))
	rep.set("stm.aborts_enemy_per_commit", ratio(float64(st.AbortsEnemy), commits))
	rep.set("stm.aborts_cas_race_per_commit", ratio(float64(st.AbortsCASRace), commits))
	rep.set("stm.opens_per_commit", ratio(float64(st.Opens), commits))
	rep.set("stm.backoff_ns_per_commit", ratio(float64(st.BackoffNs), commits))
	rep.set("core.wait_ns_per_commit", ratio(float64(st.WaitNs), commits))
	rep.set("core.conflicts_per_commit", ratio(float64(st.Conflicts), commits))
	rep.set("core.enemy_aborts_per_commit", ratio(float64(st.EnemyAborts), commits))
	if traced == nil {
		return nil
	}
	tt := totals(traced.spans)
	rep.set("stm.engine_self_ns_per_commit", ratio(float64(tt.self[spanAtomically]), float64(tt.count[spanAtomically])))
	rep.set("intset.body_ns_per_attempt", ratio(float64(tt.total[spanAttempt]-tt.wait[spanAttempt]), float64(tt.count[spanAttempt])))
	rep.set("trace.overhead_pct", 100*(traced.m.p50-untraced.m.p50)/untraced.m.p50)
	rep.note("traced phase: %.0f commits/s, p50 %.1f us; untraced phase: %.0f commits/s, p50 %.1f us",
		traced.m.throughput, traced.m.p50/1e3, untraced.m.throughput, untraced.m.p50/1e3)
	rep.note("loadgen.cpu_us_per_op is not measured: the generator and the engine share one process")
	return writeSpanFile(cfg, rep, traced.spans)
}

// failed records a violation, or passes any other error up.
func (e *listEnv) failed(err error) error {
	if isViolation(err) {
		e.rep.violate("%v", err)
		return nil
	}
	return fmt.Errorf("stm-list: %w", err)
}

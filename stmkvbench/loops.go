package main

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"
)

// checker reads and verifies the replies of one op on one connection.
// failed reports an unexpected error reply (the op failed, the run goes
// on); err is a correctness violation or a broken connection.
type checker interface {
	readOp(c *conn, r *reply, s *stream, o op) (failed bool, err error)
}

// errViolation marks a checker error as a correctness violation rather
// than a transport failure.
var errViolation = errors.New("violation")

func violation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errViolation, fmt.Sprintf(format, args...))
}

// recorder files one goroutine's replies and latency samples by
// sub-window, so the report can choose which sub-windows to measure
// over.
type recorder struct {
	p   phase
	lat []hist  // per sub-window
	ops []int64 // per sub-window: replies that arrived in it
}

func newRecorder(p phase) recorder {
	return recorder{p: p, lat: make([]hist, p.subs), ops: make([]int64, p.subs)}
}

// reply counts one reply that arrived at t.
func (r *recorder) reply(t time.Time) {
	if k := r.p.subOf(t); k >= 0 {
		r.ops[k]++
	}
}

// sample files a latency under the sub-window holding at: the reply
// time for a closed loop, the due time for an open one.
func (r *recorder) sample(at time.Time, ns int64) {
	if k := r.p.subOf(at); k >= 0 {
		r.lat[k].add(ns)
	}
}

// loopResult is what one connection's loop measured.
type loopResult struct {
	rec       recorder
	lateness  latencies // open loop: send time minus due time, ops due in the window
	attempted int64
	failed    int64
	next      int // stream index after the last op sent
	err       error
}

// phase is one measured pass of a main loop: load runs from start
// until end, and the window [t0, end) is measured in subs sub-windows
// of about subLen each.
type phase struct {
	start, t0, end time.Time
	subs           int
	sub            time.Duration
	tr             []*tracer // per connection; nil entries trace nothing
}

func newPhase(window, subLen time.Duration, tr []*tracer) phase {
	start := time.Now()
	t0 := start.Add(warmup)
	subs := max(1, int(window/subLen))
	sub := window / time.Duration(subs)
	return phase{start: start, t0: t0, end: t0.Add(sub * time.Duration(subs)), subs: subs, sub: sub, tr: tr}
}

func (p phase) tracer(i int) *tracer {
	if p.tr == nil {
		return nil
	}
	return p.tr[i]
}

// subOf returns the sub-window t falls in, or -1 outside the window.
func (p phase) subOf(t time.Time) int {
	if t.Before(p.t0) || !t.Before(p.end) {
		return -1
	}
	return min(int(t.Sub(p.t0)/p.sub), p.subs-1)
}

func (p phase) inWindow(t time.Time) bool { return p.subOf(t) >= 0 }

func newLoopResult(p phase, first int) loopResult {
	return loopResult{rec: newRecorder(p), next: first}
}

// closedLoop keeps depth ops in flight on c until the phase ends,
// then drains. Requests queued while replies are still buffered go out
// together in one write, as a pipelining client sends them.
func closedLoop(c *conn, s *stream, ks *keyspace, ci int, chk checker, depth int, first int, p phase) loopResult {
	res := newLoopResult(p, first)
	tr := p.tracer(ci)
	if err := c.c.SetReadDeadline(p.end.Add(30 * time.Second)); err != nil {
		res.err = err
		return res
	}
	type slot struct {
		idx  int
		sent time.Time
	}
	ring := make([]slot, depth)
	head, queued, unsent := 0, 0, 0
	push := func() {
		i := res.next % len(s.ops)
		c.out = ks.appendOp(c.out, s, ci, s.ops[i])
		ring[(head+queued)%depth] = slot{idx: i}
		queued++
		unsent++
		res.next++
		res.attempted++
	}
	send := func() error {
		now := time.Now()
		for k := queued - unsent; k < queued; k++ {
			ring[(head+k)%depth].sent = now
		}
		unsent = 0
		return c.flush()
	}
	for range depth {
		push()
	}
	if res.err = send(); res.err != nil {
		return res
	}
	var r reply
	for queued > 0 {
		sl := ring[head]
		failed, err := chk.readOp(c, &r, s, s.ops[sl.idx])
		if err != nil {
			res.err = err
			return res
		}
		done := time.Now()
		head, queued = (head+1)%depth, queued-1
		if failed {
			res.failed++
		}
		res.rec.reply(done)
		res.rec.sample(done, int64(done.Sub(sl.sent)))
		tr.add(spanRequest, uint32(sl.idx), sl.sent, done)
		if done.Before(p.end) {
			push()
		}
		if unsent > 0 && c.br.Buffered() == 0 {
			if res.err = send(); res.err != nil {
				return res
			}
		}
	}
	return res
}

// openLoop sends c's ops as Poisson arrivals from a sender goroutine,
// a mean period apart and starting offset after the phase start, while
// this goroutine reads the replies in order. Latency runs from each
// op's due time, so a stall is charged to every op queued behind it.
func openLoop(c *conn, s *stream, ks *keyspace, ci int, chk checker, period, offset time.Duration, first int, p phase) loopResult {
	res := newLoopResult(p, first)
	tr := p.tracer(ci)
	// The arrivals due before the phase ends, continuing the stream's
	// gap sequence where the last phase left it.
	var dues []time.Time
	for t, g := p.start.Add(offset), first; t.Before(p.end); g++ {
		dues = append(dues, t)
		t = t.Add(time.Duration(s.gaps[g%len(s.gaps)] * float64(period)))
	}
	n := len(dues)
	if err := c.c.SetReadDeadline(p.end.Add(30 * time.Second)); err != nil {
		res.err = err
		return res
	}
	op := func(i int) op { return s.ops[(first+i)%len(s.ops)] }
	var (
		wg       sync.WaitGroup
		lateness latencies
		sendErr  error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, d := range dues {
			if wait := time.Until(d); wait > 0 {
				// The runtime's timers wake about a millisecond late on
				// Linux; nanosleep wakes within tens of microseconds,
				// which keeps the schedule honest at sub-millisecond
				// periods.
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
			}
			sent := time.Now()
			if p.inWindow(d) {
				lateness = append(lateness, int64(sent.Sub(d)))
			}
			c.out = ks.appendOp(c.out, s, ci, op(i))
			if err := c.flush(); err != nil {
				sendErr = err
				// Unblock the reader, which waits for replies that
				// will never come.
				c.c.SetReadDeadline(time.Now())
				return
			}
		}
	}()
	var r reply
	for i := 0; i < n; i++ {
		res.attempted++
		failed, err := chk.readOp(c, &r, s, op(i))
		if err != nil {
			res.err = err
			break
		}
		done := time.Now()
		if failed {
			res.failed++
		}
		d := dues[i]
		res.rec.reply(done)
		res.rec.sample(d, int64(done.Sub(d)))
		tr.add(spanRequest, uint32(first+i), d, done)
	}
	wg.Wait()
	if sendErr != nil && (res.err == nil || isTimeout(res.err)) {
		res.err = sendErr
	}
	res.lateness = lateness
	res.next = first + n
	return res
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// runConns runs loop once per connection concurrently and returns
// each connection's result, and their recorders and totals merged; the
// first error wins.
func runConns(n int, loop func(ci int) loopResult) (all loopResult, recs []*recorder, per []loopResult) {
	per = make([]loopResult, n)
	var wg sync.WaitGroup
	for ci := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[ci] = loop(ci)
		}()
	}
	wg.Wait()
	for i := range per {
		r := &per[i]
		recs = append(recs, &r.rec)
		all.lateness = append(all.lateness, r.lateness...)
		all.attempted += r.attempted
		all.failed += r.failed
		if all.err == nil {
			all.err = r.err
		}
	}
	return all, recs, per
}

// subSnap is what the monitor read over one sub-window.
type subSnap struct {
	srv, self procSnap // counter deltas of the server and of this process
	steal     float64  // share of the machine's CPU time stolen by the hypervisor
	dur       time.Duration
}

// procSubs snapshots pid's counters, this process's and the machine's
// steal at every sub-window edge of the phase.
func procSubs(pid int, p phase) ([]subSnap, error) {
	var out []subSnap
	var prevS, prevM procSnap
	var prevH hostCPU
	var prevT time.Time
	for k := 0; k <= p.subs; k++ {
		time.Sleep(time.Until(p.t0.Add(time.Duration(k) * p.sub)))
		t := time.Now()
		h, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		s, err := readProc(pid)
		if err != nil {
			return nil, err
		}
		m, err := readProc(0)
		if err != nil {
			return nil, err
		}
		if k > 0 {
			out = append(out, subSnap{srv: delta(prevS, s), self: delta(prevM, m),
				steal: ratio(float64(h.steal-prevH.steal), float64(h.total-prevH.total)), dur: t.Sub(prevT)})
		}
		prevS, prevM, prevH, prevT = s, m, h, t
	}
	return out, nil
}

// sum adds the per-sub-window counter deltas of srv (self when self is
// true); the peak is the last one's.
func sum(snaps []subSnap, self bool) procSnap {
	var t procSnap
	for _, sn := range snaps {
		s := sn.srv
		if self {
			s = sn.self
		}
		t.cpuTicks += s.cpuTicks
		t.syscR += s.syscR
		t.syscW += s.syscW
		t.ctxSwitch += s.ctxSwitch
		t.peakRSSKiB = s.peakRSSKiB
	}
	return t
}

// subMetrics are the end-to-end numbers of one phase, taken over its
// least-disturbed sub-windows.
type subMetrics struct {
	throughput float64 // ops/s
	p50, p99   float64 // ns
	cpuPerOp   float64 // µs of the system under test per op
	samples    int64   // latency samples in the kept sub-windows
	kept       []int   // the sub-windows the numbers come from
	steal      float64 // mean steal over the kept sub-windows
}

// The end-to-end numbers are taken over the sub-windows in which the
// hypervisor stole at most quietSteal of the machine's CPU time, or,
// when fewer than one in keepShare were that quiet, over the least
// stolen one in keepShare.
const (
	quietSteal = 0.02
	keepShare  = 8
)

// summarize computes the phase's numbers over its quiet sub-windows
// (see quietSteal), plus as many more, least stolen first, as a p99
// needs samples. On a shared host, steal comes and goes within a
// second and slows every layer alike; keeping the quiet sub-windows
// measures the program, not its neighbours, and the report prints how
// much was stolen. Both percentiles are over every kept sample: the
// kept sub-windows span many of the server's collections and sweeps,
// so the tail they add is counted at its usual rate. p99 is left zero
// when wantP99 is false.
func summarize(recs []*recorder, snaps []subSnap, wantP99 bool) (subMetrics, error) {
	var m subMetrics
	subs := len(snaps)
	ops := make([]int64, subs)
	size := make([]int64, subs)
	for _, r := range recs {
		for k := range subs {
			ops[k] += r.ops[k]
			size[k] += r.lat[k].n
		}
	}
	idx := make([]int, subs)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(snaps[a].steal, snaps[b].steal) })
	keep, samples := 0, int64(0)
	for keep < subs && (snaps[idx[keep]].steal <= quietSteal || keep < (subs+keepShare-1)/keepShare || samples < 100*minBeyond) {
		samples += size[idx[keep]]
		keep++
	}
	m.kept = idx[:keep]
	slices.Sort(m.kept)
	var pool hist
	var n int64
	var secs, cpu float64
	for _, k := range m.kept {
		for _, r := range recs {
			pool.merge(&r.lat[k])
		}
		n += ops[k]
		secs += snaps[k].dur.Seconds()
		cpu += snaps[k].srv.cpuMicros()
		m.steal += snaps[k].steal / float64(keep)
	}
	m.samples = pool.n
	m.throughput, m.cpuPerOp = ratio(float64(n), secs), ratio(cpu, float64(n))
	var err error
	if m.p50, err = pool.quantile(0.50); err != nil {
		return m, err
	}
	if wantP99 {
		if m.p99, err = pool.quantile(0.99); err != nil {
			return m, err
		}
	}
	return m, nil
}

// delta is b minus a for the counters; the peak is b's.
func delta(a, b procSnap) procSnap {
	return procSnap{
		cpuTicks:   b.cpuTicks - a.cpuTicks,
		syscR:      b.syscR - a.syscR,
		syscW:      b.syscW - a.syscW,
		ctxSwitch:  b.ctxSwitch - a.ctxSwitch,
		peakRSSKiB: b.peakRSSKiB,
	}
}

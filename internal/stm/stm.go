package stm

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// STM is a transactional-memory instance: the shared timestamp source,
// commit clock, session pool and session registry that a set of
// cooperating transactions uses. Independent STM instances are fully
// isolated from one another.
//
// Transactions are executed through two equivalent surfaces:
//
//   - STM.Atomically (and the typed Atomic), callable from any
//     goroutine: each call borrows a pooled session carrying a private
//     contention-manager instance built by the STM's ManagerFactory
//     (see WithManagerFactory);
//   - Thread, the paper-faithful pinned form: one session bound to one
//     manager instance for its lifetime, for harnesses that sweep a
//     fixed number of worker threads.
type STM struct {
	txIDs       atomic.Uint64
	timestamps  atomic.Uint64
	commitClock atomic.Uint64

	// interleave, when positive, yields the processor every
	// interleave-th object open. On a host with fewer cores than
	// worker threads, transactions otherwise run to completion
	// between preemptions and almost never overlap; the yield points
	// simulate the concurrent interleaving of the paper's 8-context
	// testbed (see DESIGN.md, substitutions).
	interleave int

	// lazy switches conflict detection from open time to commit time
	// (see WithLazyConflicts in lazy.go).
	lazy bool

	// fullValidation disables the commit-clock shortcut so every open
	// rescans the whole read set. Ablation knob: quantifies what the
	// clock optimization buys (see BenchmarkAblationValidation).
	fullValidation bool

	// stripes are the per-object commit locks. Every TObj maps to one
	// stripe; a writer commit locks its write set's stripes in
	// ascending index order (deadlock-free), validates its read set
	// with lock-aware validation, performs the status CAS and
	// releases. With invisible reads, two writers could otherwise each
	// validate while the other was past validation but before its
	// status CAS, committing a non-serializable pair; the stripes
	// preserve the invariant the old global commitMu provided — of two
	// conflicting writers the second observes the first — while
	// letting writers on disjoint stripes commit in parallel. The
	// per-stripe critical section is a read-set scan plus one CAS — no
	// user code — so the finite-delay model of the paper still holds;
	// SXM avoided the race with visible reader lists instead (see
	// DESIGN.md).
	stripes [commitStripes]commitStripe

	// installers counts lazy-mode locator installations in flight. A
	// lazy commit publishes its buffered writes object by object, so
	// the window is non-atomic; validators treat installers != 0 the
	// way a seqlock reader treats an odd sequence (the generalization
	// of the old odd/even commit-clock parity to concurrent,
	// stripe-disjoint installers) and wait it out rather than accept a
	// cut through a partial installation.
	installers atomic.Int64

	// factory builds the per-session contention manager for sessions
	// created by STM.Atomically (see WithManagerFactory).
	factory ManagerFactory

	// tracer, when non-nil, is the flight recorder installed by
	// WithTracer: sessions sample logical transactions and deliver
	// event traces to its sink (see trace.go). rtrace additionally
	// emits runtime/trace tasks and regions while an execution trace
	// is being collected (WithRuntimeTrace).
	tracer *tracerConfig
	rtrace bool

	// commitHook, when non-nil, runs inside every writer commit after
	// read-set validation succeeds and before the status CAS — the
	// window the striped protocol must keep exclusive between
	// conflicting writers. Only tests install it (via the export_test
	// option), to schedule two commits into the window
	// deterministically on hosts without real parallelism; nil in
	// production, costing one predictable branch per writer commit.
	commitHook func()

	// openHook, when non-nil, runs in every open between the attempt's
	// status check and its locator load — the window in which an enemy
	// can abort the attempt and commit over its objects unnoticed by
	// the check. Test-only, like commitHook.
	openHook func(tx *Tx, o *TObj)

	// free is the LIFO pool of idle sessions behind STM.Atomically,
	// guarded by freeMu. An explicit list (rather than sync.Pool) keeps
	// the session count equal to the peak number of concurrent
	// transactions: sessions are never dropped, so the registry below —
	// and with it TotalStats — stays exact and bounded. (A lock-free
	// Treiber stack with in-place links would suffer ABA here because
	// sessions are reused; the mutex section is a slice push/pop.)
	freeMu sync.Mutex
	free   []*session

	mu       sync.Mutex
	sessions []*session
}

// Option configures an STM instance.
type Option func(*STM)

// WithInterleavePeriod makes every transaction yield the processor
// after each n-th object open. Zero or negative disables yielding.
// Use it on hosts with fewer cores than workers to reproduce the
// transaction overlap (and hence the contention) of a real
// multiprocessor; the benchmark harness enables it by default.
func WithInterleavePeriod(n int) Option {
	return func(s *STM) { s.interleave = n }
}

// WithFullValidation disables the commit-clock shortcut: every open
// revalidates the entire read set even when no commit has happened
// since the last validation. Semantically identical, strictly slower;
// exists to measure the optimization (ablation).
func WithFullValidation() Option {
	return func(s *STM) { s.fullValidation = true }
}

// WithManagerFactory sets the constructor for the per-session
// contention managers behind STM.Atomically; wire it to a registry
// entry (core.Factory) to pick a policy by name. Without this option
// the STM falls back to a built-in polite-with-patience-bound manager
// (wait with growing backoff, abort the enemy after a bounded number
// of rounds so a halted enemy cannot obstruct forever). Threads are
// unaffected: NewThread takes its manager instance explicitly.
func WithManagerFactory(f ManagerFactory) Option {
	return func(s *STM) { s.factory = f }
}

// New creates an empty STM instance.
func New(opts ...Option) *STM {
	s := &STM{}
	// The commit clock starts at 2 so that a transaction's zero-valued
	// validClock always differs from it (see Tx.validate).
	s.commitClock.Store(2)
	for _, opt := range opts {
		opt(s)
	}
	if s.factory == nil {
		s.factory = func() Manager { return &defaultManager{} }
	}
	return s
}

// Thread is the paper's per-thread execution context, kept as a thin
// shim over a pinned session: it binds one contention-manager instance
// to a stream of transactions for its whole lifetime, matching the
// model of one transaction per thread that the figures sweep. A Thread
// must be used by one goroutine at a time (concurrent Atomically calls
// on the same Thread are a bug). Code that is not reproducing the
// fixed-thread sweeps should prefer STM.Atomically, which any
// goroutine may call.
type Thread struct {
	sess *session
}

// NewThread registers a new thread with its per-thread contention
// manager.
func (s *STM) NewThread(mgr Manager) *Thread {
	sess := s.newSession(mgr)
	sess.pinned = true
	return &Thread{sess: sess}
}

// Manager returns the thread's contention manager.
func (t *Thread) Manager() Manager { return t.sess.mgr }

// Stats returns a snapshot of the thread's counters. The counters are
// atomic, so the snapshot is safe (and exact to the last completed
// update) even while the thread's goroutine is running.
func (t *Thread) Stats() Stats { return t.sess.stats.snapshot() }

// Current returns the transaction attempt currently running on the
// thread, or nil. Intended for failure injection and tests. A
// Thread's descriptors are never recycled (unlike a pooled session's),
// so poking a stale reference after the attempt finished remains a
// harmless no-op on a frozen transaction, as it always was.
func (t *Thread) Current() *Tx { return t.sess.current.Load() }

// Atomically runs fn as a transaction on the thread's pinned session,
// retrying until it commits.
//
// The logical transaction receives its timestamp before the first
// attempt and keeps it across retries (the greedy manager's key
// requirement). fn must propagate errors from the typed accessors (or
// OpenRead/OpenWrite); when the underlying cause is an enemy-inflicted
// abort, Atomically retries fn, and any other error aborts the
// transaction and is returned to the caller unchanged.
//
// fn may be called many times and must therefore be free of side
// effects other than through the transaction.
func (t *Thread) Atomically(fn func(tx *Tx) error) error {
	return t.sess.atomically(fn)
}

// TotalStats aggregates the statistics of every session the STM has
// created — pooled sessions and Threads alike. The counters are
// atomic, so it may be called at any time, concurrently with running
// transactions; each counter is exact to the last completed update.
func (s *STM) TotalStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total Stats
	for _, sess := range s.sessions {
		snap := sess.stats.snapshot()
		total.Add(snap)
	}
	return total
}

// CommitLatency merges every session's commit-latency histogram: the
// wall-time distribution of committed logical transactions (retries
// included). Like TotalStats it needs no quiescence — per-bucket
// atomic snapshots are merged, so concurrent commits may be split
// across successive calls but are never lost.
func (s *STM) CommitLatency() *metrics.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total metrics.Histogram
	for _, sess := range s.sessions {
		total.Merge(sess.commitLat.Snapshot())
	}
	return &total
}

// CommitAttempts merges every session's attempts-per-commit histogram
// (1 = first-try commit). The values are counts, not durations; use
// Quantile/Mean on the result as dimensionless numbers.
func (s *STM) CommitAttempts() *metrics.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total metrics.Histogram
	for _, sess := range s.sessions {
		total.Merge(sess.commitTries.Snapshot())
	}
	return &total
}

// CommitClock returns the number of commits observed so far plus one;
// it advances on every commit and is the basis for cheap read-set
// validation.
func (s *STM) CommitClock() uint64 { return s.commitClock.Load() }

// commitStripes is the size of the per-STM stripe-lock array writer
// commits map their write sets onto. A power of two sized comfortably
// past the paper's 32-thread sweeps (and our 64/128-goroutine
// extensions), so that writers on disjoint objects rarely share a
// stripe by accident.
const commitStripes = 128

// commitStripe is one slot of the striped writer-commit lock. The
// mutex serializes committers whose write sets share the stripe; the
// owner pointer publishes the committing transaction to lock-aware
// read-set validation, which only loads it (never locks), so it must
// be atomic. Padded to a cache line so contended neighbours do not
// false-share.
type commitStripe struct {
	mu    sync.Mutex
	owner atomic.Pointer[Tx]
	_     [64 - 16]byte
}

// lockStripes sorts and dedupes the stripe indices in buf, locks each
// stripe in ascending order (the global order that makes overlapping
// writer commits deadlock-free) and publishes tx as the stripes'
// committing owner. It returns the deduped prefix of buf, which the
// caller passes to unlockStripes; buf is the session's reusable
// scratch so a steady-state commit allocates nothing.
func (tx *Tx) lockStripes(buf []uint32) []uint32 {
	tx.sess.stripeScratch = buf // retain any growth for the next commit
	slices.Sort(buf)
	buf = slices.Compact(buf)
	for _, i := range buf {
		st := &tx.stm.stripes[i]
		st.mu.Lock()
		st.owner.Store(tx)
	}
	return buf
}

// unlockStripes clears the owner published by lockStripes and releases
// the stripes. Owners are cleared only after the commit's status CAS
// and clock bump, so a validator that sees a stripe unowned also sees
// the committed versions the owner installed.
func (tx *Tx) unlockStripes(held []uint32) {
	for _, i := range held {
		st := &tx.stm.stripes[i]
		st.owner.Store(nil)
		st.mu.Unlock()
	}
}

// tryCommit validates the read set one final time and attempts the
// commit CAS, advancing the commit clock when a writer commits.
//
// Read-only transactions validate with a clock-stability loop: if the
// commit clock is unchanged across the scan, every read was
// simultaneously valid at the scan's start, which is the transaction's
// serialization point. Writer transactions lock the commit stripes
// covering their write set (in ascending index order) and validate
// with the lock-aware scan, which treats a stripe held by another
// committing writer as a conflict — so of two writers racing on
// overlapping read/write sets, at least one observes the other and
// fails validation (see DESIGN.md for the ordering argument).
func (tx *Tx) tryCommit() bool {
	if tx.stm.lazy {
		return tx.tryCommitLazy()
	}
	if len(tx.writes) == 0 {
		return tx.tryCommitReadOnly()
	}
	if len(tx.sess.reads.objs) == 0 {
		// Blind writer (e.g. a typed Update, whose pre-image is the
		// owned locator's oldVal, not a read-set entry): with nothing
		// to validate there is no validate-then-CAS window to protect,
		// so no stripes are taken — the status CAS alone is the
		// serialization point, exactly the original DSTM commit.
		// Ownership guards the pre-images: an enemy acquires an owned
		// object only by aborting this transaction first, which makes
		// the CAS below fail. (Lazy mode never reaches here: its
		// write acquisitions record pre-images in the read set.)
		if !tx.commit() {
			tx.setCause(CauseCASRace)
			return false
		}
		tx.stm.commitClock.Add(2)
		// No stripes are held here, so the commit hook of a blind
		// writer carries no cross-transaction ordering guarantee; the
		// kv capture never reaches this path (its mutations read the
		// chain they rewrite, so the read set is never empty).
		tx.fireOnCommit()
		return true
	}
	buf := tx.sess.stripeScratch[:0]
	for _, obj := range tx.writes {
		buf = append(buf, obj.stripe)
	}
	held := tx.lockStripes(buf)
	defer tx.unlockStripes(held)
	if !tx.readsCommittedAndUnowned() {
		tx.setCause(CauseValidation)
		tx.noteConflict()
		tx.Abort()
		return false
	}
	if h := tx.stm.commitHook; h != nil {
		h()
	}
	if !tx.commit() {
		tx.setCause(CauseCASRace)
		return false
	}
	tx.stm.commitClock.Add(2)
	// The deferred unlockStripes has not run yet: the hook fires with
	// the write set's stripes still held, so the hooks of two writers
	// that touched the same object run in their commit order.
	tx.fireOnCommit()
	return true
}

// scanReads performs a full read-set scan against current committed
// versions, without the commit-clock shortcut and without lock
// awareness — the read-only commit's scan (writer commits use the
// lock-aware readsCommittedAndUnowned instead).
func (tx *Tx) scanReads() bool {
	return tx.readsStillCommitted()
}

package stm

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// session is the unit of transaction execution: it binds a contention
// manager instance to a stream of logical transactions and caches the
// reusable pieces of attempt state. One goroutine uses a session at a
// time, but — unlike the paper's thread model — a session is not tied
// to any particular goroutine: STM.Atomically borrows one from a pool
// for the duration of a single logical transaction, and the Thread
// compatibility shim pins one for its lifetime.
type session struct {
	stm *STM
	mgr Manager

	// pinned marks a Thread's session. Pinned sessions never reuse Tx
	// descriptors (only the session-owned read set): Thread exposes
	// the running attempt through Current() for failure injection, and
	// a stale injector reference must stay a harmless no-op on a
	// finished transaction — never a Halt of an unrelated later one.
	// Pooled sessions expose no descriptor, so they recycle freely.
	pinned bool

	// current is the attempt now running on this session, exposed so
	// that failure injectors and tests can halt or examine it.
	current atomic.Pointer[Tx]

	// stats counters are written only by the session's current
	// goroutine but read concurrently by TotalStats, hence atomic.
	stats atomicStats

	// commitLat and commitTries distribute the wall time and attempt
	// count of committed logical transactions. Like stats they are
	// written by the session's current goroutine and snapshotted
	// concurrently (metrics.AtomicHistogram is atomic per bucket), so
	// STM.CommitLatency needs no quiescence.
	commitLat   metrics.AtomicHistogram
	commitTries metrics.AtomicHistogram

	// freeTx and freeShared cache attempt state for reuse (see
	// recycle). They are owner-private: only the goroutine holding the
	// session touches them.
	freeTx     *Tx
	freeShared *txShared

	// reads is the running attempt's read set (see readSet).
	reads readSet

	// stripeScratch is the reusable buffer writer commits collect
	// their write set's stripe indices into (see Tx.lockStripes);
	// owner-private like the rest of the attempt scaffolding, so a
	// steady-state commit allocates nothing for stripe bookkeeping.
	stripeScratch []uint32

	// Flight-recorder state (see trace.go), owner-private. rec is
	// non-nil exactly while a sampled logical transaction runs — that
	// pointer is the whole disabled-path cost at every hook site.
	// recBuf is the session's reusable recorder, traceSkip the
	// sampling countdown, and rtCtx the runtime/trace task context of
	// the running transaction (nil outside an execution trace).
	rec       *txRecorder
	recBuf    *txRecorder
	traceSkip uint32
	rtCtx     context.Context
}

// newSession creates a session with its own contention-manager
// instance and registers it with the STM so TotalStats can see its
// counters.
func (s *STM) newSession(mgr Manager) *session {
	sess := &session{stm: s, mgr: mgr, stripeScratch: make([]uint32, 0, 8)}
	s.mu.Lock()
	s.sessions = append(s.sessions, sess)
	s.mu.Unlock()
	return sess
}

// acquire hands out an idle pooled session, creating one (with a fresh
// manager from the STM's factory) only when every existing pooled
// session is in use — so the session count tracks the peak number of
// concurrent Atomically calls.
func (s *STM) acquire() *session {
	s.freeMu.Lock()
	if n := len(s.free); n > 0 {
		sess := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.freeMu.Unlock()
		return sess
	}
	s.freeMu.Unlock()
	return s.newSession(s.factory())
}

// release returns a session to the pool.
func (s *STM) release(sess *session) {
	s.freeMu.Lock()
	s.free = append(s.free, sess)
	s.freeMu.Unlock()
}

// Atomically runs fn as a transaction on a pooled session, retrying
// until it commits. It may be called concurrently from any number of
// goroutines — each call borrows a session (and with it a private
// contention-manager instance) for the duration of the logical
// transaction.
//
// The error contract is Thread.Atomically's: the logical transaction
// receives its timestamp before the first attempt and keeps it across
// retries; fn must propagate errors from the typed accessors (or
// OpenRead/OpenWrite); enemy-inflicted aborts retry, ErrHalted and
// user errors surface. fn may be called many times and must be free of
// side effects other than through the transaction.
func (s *STM) Atomically(fn func(tx *Tx) error) error {
	sess := s.acquire()
	defer s.release(sess)
	return sess.atomically(fn)
}

// Atomic runs fn as a transaction on a pooled session and returns its
// result — the typed form of STM.Atomically for transactions that
// compute a value:
//
//	sum, err := stm.Atomic(s, func(tx *stm.Tx) (int, error) {
//		a, err := stm.Read(tx, x)
//		if err != nil {
//			return 0, err
//		}
//		b, err := stm.Read(tx, y)
//		if err != nil {
//			return 0, err
//		}
//		return a + b, nil
//	})
//
// On error the zero T is returned. fn may run many times; only the
// committed attempt's result is returned.
func Atomic[T any](s *STM, fn func(tx *Tx) (T, error)) (T, error) {
	var out T
	err := s.Atomically(func(tx *Tx) error {
		v, err := fn(tx)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// Atomic2 is Atomic for transactions that compute two values — the
// shape of container lookups and conditional removals, whose methods
// return (value, ok, error) and so plug in directly:
//
//	v, ok, err := stm.Atomic2(s, queue.Dequeue)
//
// On error the zero A and B are returned; only the committed attempt's
// results are returned.
func Atomic2[A, B any](s *STM, fn func(tx *Tx) (A, B, error)) (A, B, error) {
	var outA A
	var outB B
	err := s.Atomically(func(tx *Tx) error {
		a, b, err := fn(tx)
		if err != nil {
			return err
		}
		outA, outB = a, b
		return nil
	})
	if err != nil {
		var zeroA A
		var zeroB B
		return zeroA, zeroB, err
	}
	return outA, outB, nil
}

// atomically executes one logical transaction on the session.
func (sess *session) atomically(fn func(tx *Tx) error) error {
	// If fn panics (or calls runtime.Goexit) mid-attempt, the normal
	// paths below never clear current. Abort the orphaned attempt so
	// it stops obstructing its objects — a goroutine-per-request
	// server that recovers panics must not wedge a Var forever — and
	// leave it unrecycled (Abort freezes it, which is all the locator
	// protocol needs).
	defer func() {
		if tx := sess.current.Load(); tx != nil {
			tx.Abort()
			sess.current.Store(nil)
			// The orphan skipped recycle: don't let its local slot and
			// commit hook pin caller state.
			tx.local = nil
			tx.onCommit = nil
		}
		// Halted and panicked attempts skip recycle, which is what
		// normally empties the session's read set before it idles in
		// the pool; reset here so an abandoned attempt's entries don't
		// pin old committed Values.
		sess.reads.reset()
		// A panicked sampled transaction never reached finishTrace;
		// discard its half-built recording rather than letting the
		// next sampled transaction inherit it (no-op otherwise).
		if sess.rec != nil {
			sess.rec = nil
			sess.recBuf.reset()
		}
	}()
	shared := sess.freeShared
	if shared != nil {
		sess.freeShared = nil
		shared.priority.Store(0)
		shared.aborts.Store(0)
		shared.label.Store(0)
		shared.waitNs.Store(0)
	} else {
		shared = &txShared{}
	}
	shared.id.Store(sess.stm.txIDs.Add(1))
	shared.timestamp.Store(sess.stm.timestamps.Add(1))
	trc := sess.stm.tracer
	if trc != nil {
		sess.armTrace(trc)
	}
	if sess.stm.rtrace {
		endTask := sess.beginRuntimeTask()
		defer endTask()
	}
	start := time.Now()
	err := sess.run(shared, fn)
	if err == nil {
		// Wall time of the whole logical transaction, retries included —
		// the latency a caller of Atomically actually experienced.
		sess.commitLat.ObserveSince(start)
		sess.commitTries.ObserveN(shared.aborts.Load() + 1)
	}
	if sess.rec != nil {
		// Deliver the sampled transaction: the stripes are released and
		// the status frozen, so the sink observes a finished history.
		sess.finishTrace(trc, shared, err == nil, int64(time.Since(start)))
	}
	if !errors.Is(err, ErrHalted) {
		// The logical transaction is over and frozen, so enemies never
		// consult its record again and it can serve the next
		// transaction. A halted transaction stays active and
		// obstructing — enemy managers keep reading its timestamp and
		// priority — so its record must not be reused.
		sess.freeShared = shared
	}
	return err
}

// run executes attempts of the logical transaction shared until one
// commits, fn fails with a non-retryable error, or the transaction is
// halted by failure injection.
func (sess *session) run(shared *txShared, fn func(tx *Tx) error) error {
	for {
		tx := sess.newAttempt(shared)
		sess.current.Store(tx)
		if rec := sess.rec; rec != nil {
			rec.begin()
		}
		reg := sess.beginAttemptRegion()
		sess.mgr.Begin(tx)
		err := fn(tx)
		switch {
		case err == nil:
			if tx.tryCommit() {
				sess.endAttemptRegion(reg, CauseNone)
				sess.current.Store(nil)
				sess.mgr.Committed(tx)
				sess.stats.commits.Add(1)
				sess.recycle(tx)
				return nil
			}
			// Aborted between fn returning and commit.
		case errors.Is(err, ErrHalted):
			// Failure injection: abandon the transaction without
			// aborting it. It remains active and obstructing, so its
			// descriptor is not recycled; the deferred reset in
			// atomically empties the session's read set, and the local
			// slot and hook are severed so stale locator references
			// don't pin caller state.
			sess.endAttemptRegion(reg, CauseNone)
			sess.current.Store(nil)
			sess.stats.halted.Add(1)
			tx.local = nil
			tx.onCommit = nil
			return ErrHalted
		case errors.Is(err, ErrAborted):
			// Enemy abort: fall through to retry.
		default:
			// User error: abort the transaction, surface the error.
			// Tracked apart from contention aborts (AbortsUser): the
			// caller chose to stop, no enemy forced it.
			tx.setCause(CauseUserError)
			tx.Abort()
			sess.stats.abortsUser.Add(1)
			if rec := sess.rec; rec != nil {
				rec.abort(CauseUserError)
			}
			sess.endAttemptRegion(reg, CauseUserError)
			sess.current.Store(nil)
			sess.mgr.Aborted(tx)
			sess.recycle(tx)
			return err
		}
		tx.Abort() // make the attempt's fate unambiguous
		// Charge the abort to its cause. CauseNone can only mean user
		// code returned ErrAborted without any engine site classifying
		// the death; bucket it with enemy aborts so the per-cause
		// partition of Aborts stays exact.
		cause := tx.cause
		if cause == CauseNone {
			cause = CauseEnemyAbort
		}
		shared.aborts.Add(1)
		sess.stats.noteAbort(cause)
		if rec := sess.rec; rec != nil {
			rec.abort(cause)
		}
		sess.endAttemptRegion(reg, cause)
		sess.mgr.Aborted(tx)
		sess.recycle(tx)
	}
}

// newAttempt produces the descriptor for the next attempt, reusing the
// session's cached descriptor when available.
func (sess *session) newAttempt(shared *txShared) *Tx {
	// The previous attempt's entries are normally reset by recycle; a
	// halted or panicked attempt skips recycling, so reset again here
	// before lending the set out.
	sess.reads.reset()
	if tx := sess.freeTx; tx != nil {
		sess.freeTx = nil
		tx.shared = shared
		tx.status.Store(int32(StatusActive))
		tx.waiting.Store(false)
		tx.halted.Store(false)
		tx.cause = CauseNone
		tx.validClock = 0
		tx.opens = 0
		return tx
	}
	return &Tx{stm: sess.stm, sess: sess, shared: shared}
}

// recycle salvages attempt state once the attempt is frozen. A
// descriptor may be reused only if it never appeared as an owner in
// any locator — that is, it opened nothing for eager writing: enemies
// that reached a descriptor through a stale locator interrogate its
// status forever, and resetting a referenced descriptor to active
// would rewrite committed history. Read-only attempts and lazy-mode
// attempts (whose commit installs ownerless locators) are never
// referenced, so their descriptors are reused whole. The read set is
// the session's and is reused either way.
func (sess *session) recycle(tx *Tx) {
	// Reset here, not at reuse: a session may idle in the pool
	// indefinitely, and its read-set entries must not pin old committed
	// Values while it does. The local slot and commit hook are
	// attempt-scoped for the same reason (a fired hook already cleared
	// itself; an aborted attempt's hook must not survive into a retry).
	sess.reads.reset()
	tx.local = nil
	tx.onCommit = nil
	if len(tx.writes) == 0 && !sess.pinned && sess.freeTx == nil {
		clear(tx.lazyWrites)
		sess.freeTx = tx
	}
}

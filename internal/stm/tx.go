package stm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// txShared is the state of a logical transaction that survives aborts
// and retries. The paper's greedy manager requires that a transaction
// keeps its timestamp when it restarts; Karma-family managers likewise
// accumulate priority across retries. Every field is atomic: enemy
// transactions read them concurrently, and a session may reuse the
// record for its next logical transaction while a straggling enemy
// (one that observed the previous, now-frozen transaction as owner)
// still reads it — such a read can only influence a contention-manager
// heuristic, never safety, but it must be race-free.
type txShared struct {
	id        atomic.Uint64 // unique logical transaction id
	timestamp atomic.Uint64 // acquisition order; smaller = older = higher priority

	priority atomic.Int64 // Karma/Eruption/Polka accumulated priority
	aborts   atomic.Int64 // completed attempts that ended in abort

	// label is the interned SetLabel id, read by enemies when the
	// flight recorder names a conflict's aggressor; waitNs accumulates
	// ResolveConflict time across the logical transaction's attempts
	// (Tx.WaitNs — the per-transaction counterpart of Stats.WaitNs).
	// A straggling enemy reading a reused record can misattribute a
	// label, which — like the other heuristic fields here — affects
	// only sampled diagnostics, never safety.
	label  atomic.Uint32
	waitNs atomic.Int64
}

// Tx is one attempt of a logical transaction. All attempts share the
// same txShared, and in particular the same timestamp. Statuses are
// one-shot, so a descriptor that was ever installed in a locator is
// never reused; descriptors that no enemy can reference are recycled
// by the owning session (see session.recycle).
//
// Enemy transactions hold references to a Tx through object locators
// and interrogate it only through the atomic accessors below.
type Tx struct {
	stm    *STM
	sess   *session
	shared *txShared

	status  atomic.Int32
	waiting atomic.Bool
	halted  atomic.Bool
	// cause records why this attempt aborted (owner-written only: every
	// classification site — step, validate, the commit CASes — runs on
	// the owning goroutine). A single byte in the status word's padding
	// hole, so abort forensics cost the descriptor no space.
	cause AbortCause
	// opens counts objects opened by this attempt (reads and writes).
	// An int32 here fills the status word's padding hole, keeping the
	// per-attempt descriptor in the smaller allocation size class.
	opens int32

	// The read set lives on the session (sess.reads, see readSet): one
	// attempt runs on a session at a time, so it is lent to whichever
	// attempt is running and outlives them.

	// writes lists objects this attempt has open for writing, in open
	// order (used by statistics and tests; commit itself is just a
	// status CAS).
	writes []*TObj
	// validClock is the commit-clock value at which the read set was
	// last known valid; validation is skipped while the clock has not
	// advanced.
	validClock uint64
	// lazyWrites buffers tentative versions in lazy-conflict mode
	// (nil in eager mode and for read-only lazy transactions).
	lazyWrites map[*TObj]Value

	// local is the attempt-scoped scratch slot for layers composed
	// above the engine (the kv store parks its write-set capture
	// here); onCommit is the attempt's commit hook (see Tx.OnCommit).
	// Both are owner-private and cleared at attempt boundaries.
	local    any
	onCommit func()
}

// ID returns the logical transaction id, stable across retries.
func (tx *Tx) ID() uint64 { return tx.shared.id.Load() }

// Timestamp returns the transaction's priority timestamp. Timestamps
// are assigned from a global atomic counter when the logical
// transaction first begins and retained across aborts and retries, so
// there is a fixed bound on the number of transactions that ever run
// with an earlier timestamp — the property the greedy manager's
// Theorem 1 rests on. Smaller means older means higher priority.
func (tx *Tx) Timestamp() uint64 { return tx.shared.timestamp.Load() }

// Status returns the transaction's current status.
func (tx *Tx) Status() Status { return Status(tx.status.Load()) }

// Waiting reports whether the transaction is currently waiting for an
// enemy, as published by its own contention manager via SetWaiting.
// The greedy manager's Rule 1 aborts enemies that are waiting.
func (tx *Tx) Waiting() bool { return tx.waiting.Load() }

// SetWaiting publishes whether the transaction is waiting for an
// enemy. Contention managers set it around their waiting loops; it has
// no effect on the STM itself.
func (tx *Tx) SetWaiting(w bool) { tx.waiting.Store(w) }

// Priority returns the accumulated manager-defined priority of the
// logical transaction (used by Karma, Eruption and Polka; zero for
// managers that do not maintain priorities). It persists across
// retries.
func (tx *Tx) Priority() int64 { return tx.shared.priority.Load() }

// AddPriority adds delta to the logical transaction's accumulated
// priority. Eruption calls it on enemy transactions to transfer
// pressure, so it must be (and is) safe for concurrent use.
func (tx *Tx) AddPriority(delta int64) { tx.shared.priority.Add(delta) }

// SetPriority stores the logical transaction's accumulated priority.
func (tx *Tx) SetPriority(p int64) { tx.shared.priority.Store(p) }

// Aborts returns how many attempts of this logical transaction have
// aborted so far.
func (tx *Tx) Aborts() int64 { return tx.shared.aborts.Load() }

// Opens returns the number of objects this attempt has opened.
func (tx *Tx) Opens() int { return int(tx.opens) }

// Abort moves the transaction from active to aborted on behalf of an
// enemy (or of the transaction itself). It returns true if the
// transaction is aborted afterwards — whether by this call or an
// earlier one — and false if it had already committed.
func (tx *Tx) Abort() bool {
	if tx.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted)) {
		return true
	}
	return tx.Status() == StatusAborted
}

// commit moves the transaction from active to committed. It fails if
// an enemy aborted the transaction first.
func (tx *Tx) commit() bool {
	return tx.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitted))
}

// Halt marks the transaction as halted for failure injection: the
// owning session abandons it mid-flight without aborting it, modelling
// the prematurely stopped transactions of the paper's Section 6. The
// transaction stays active (and keeps obstructing its objects) until
// some enemy's manager aborts it.
//
// Halt is meaningful on a running attempt: one's own tx inside the
// transactional function, or a Thread.Current() reference (Thread
// descriptors are never recycled, so a stale Halt is a no-op on a
// frozen transaction). Descriptors of pooled STM.Atomically sessions
// are not exposed outside the transactional function.
func (tx *Tx) Halt() { tx.halted.Store(true) }

// Halted reports whether failure injection has halted the transaction.
func (tx *Tx) Halted() bool { return tx.halted.Load() }

// SetLocal attaches an attempt-scoped value to the transaction — the
// composition point for layers above the engine that need to
// accumulate state alongside the transactional function (the kv store
// parks its write-set capture here). The slot is owner-private (only
// the goroutine running the attempt may touch it), holds one value,
// and is cleared when the attempt ends, so a retry starts empty and
// the transactional function must re-arm it.
func (tx *Tx) SetLocal(v any) { tx.local = v }

// Local returns the value attached with SetLocal, or nil.
func (tx *Tx) Local() any { return tx.local }

// OnCommit registers fn to run if — and only if — this attempt
// commits. For writer transactions fn runs inside the commit's
// critical window: after the status CAS and commit-clock bump, while
// the write set's commit stripes are still held. Two conflicting
// writers serialize on a shared stripe, so their hooks run in commit
// order — the property the WAL's group-commit ordering rests on (log
// order = commit order per key; see DESIGN.md §Durability).
//
// Because the stripes are held, fn must be fast and must not block on
// other transactions or run transactions itself. One hook per
// attempt: a second call replaces the first. The hook is cleared at
// attempt boundaries, so a retried transaction must re-register it.
func (tx *Tx) OnCommit(fn func()) { tx.onCommit = fn }

// fireOnCommit runs and clears the attempt's commit hook, if any.
// Called only on the success paths of tryCommit and its variants.
func (tx *Tx) fireOnCommit() {
	if h := tx.onCommit; h != nil {
		tx.onCommit = nil
		h()
	}
}

// String identifies the transaction for debugging.
func (tx *Tx) String() string {
	return fmt.Sprintf("tx(id=%d ts=%d %s)", tx.ID(), tx.Timestamp(), tx.Status())
}

// backoff is the engine-level Backoff with the time accounted to the
// session's BackoffNs — acquisition CAS retries and installer waits,
// the mechanism-side counterpart of the manager's policy-side WaitNs.
func (tx *Tx) backoff(spin int) {
	t0 := time.Now()
	Backoff(spin)
	tx.sess.stats.backoffNs.Add(int64(time.Since(t0)))
}

// setCause classifies the attempt's abort for the flight recorder and
// the per-cause counters. First cause wins: an enemy abort noticed at
// the next step must not be re-labelled by a later check, so every
// site routes through here.
func (tx *Tx) setCause(c AbortCause) {
	if tx.cause == CauseNone {
		tx.cause = c
	}
}

// step checks that the attempt may keep running, translating an
// enemy-inflicted abort or injected halt into the error the
// transactional function should return.
func (tx *Tx) step() error {
	if tx.Halted() {
		return ErrHalted
	}
	if tx.Status() != StatusActive {
		tx.setCause(CauseEnemyAbort)
		return ErrAborted
	}
	return nil
}

// validate re-checks every recorded read against the object's current
// committed version. It is cheap in the common case: when the global
// commit clock has not advanced since the last successful validation
// no committed write can have invalidated the read set, so the scan is
// skipped.
//
// Success also requires the attempt to be still active after the scan.
// The caller has just loaded a locator, and the read set says nothing
// about the objects the attempt owns: an enemy that aborted the
// attempt before that load may since have taken an owned object and
// committed a write, so the loaded version can be inconsistent with
// the attempt's private copy (a blind Update has no reads at all).
// Active at the status load means no enemy has taken an owned object
// yet, so the owned pre-images and the validated reads hold at once.
//
// On failure the transaction aborts itself and validate returns false.
func (tx *Tx) validate() bool {
	// The commit clock starts at 2, so the zero value of validClock
	// means "never validated" and forces the first scan. A non-zero
	// installer count marks an in-progress lazy installation: retry
	// (bounded) so neither the shortcut nor the scan accepts a cut
	// through a partial commit. The installer count must be loaded
	// before the clock: an installation that finished before the count
	// read zero bumped the clock first, so the subsequent clock load
	// cannot match a pre-installation validClock.
	for attempt := 0; ; attempt++ {
		if tx.stm.installers.Load() != 0 {
			tx.backoff(attempt)
			continue
		}
		clock := tx.stm.commitClock.Load()
		if clock == tx.validClock && !tx.stm.fullValidation {
			return tx.stillActive()
		}
		if !tx.readsStillCommitted() {
			tx.setCause(CauseValidation)
			tx.Abort()
			return false
		}
		if tx.stm.installers.Load() == 0 && tx.stm.commitClock.Load() == clock {
			// Stable scan: cache it.
			tx.validClock = clock
			return tx.stillActive()
		}
		if attempt >= 3 {
			// Concurrent commits kept moving the clock; the scan
			// passed against some interleaving of them, which is the
			// same guarantee the eager DSTM gives. Do not cache.
			return tx.stillActive()
		}
	}
}

// stillActive is validate's closing status check; an attempt found
// aborted was killed by an enemy.
func (tx *Tx) stillActive() bool {
	if tx.Status() == StatusActive {
		return true
	}
	tx.setCause(CauseEnemyAbort)
	return false
}

// maybeYield hands the processor to another goroutine at the STM's
// configured interleave period, so transactions overlap even when the
// host has fewer cores than workers (see WithInterleavePeriod).
func (tx *Tx) maybeYield() {
	if p := tx.stm.interleave; p > 0 && int(tx.opens)%p == 0 {
		runtime.Gosched()
	}
}

// smallReads is the read-set size up to which lookups scan the entries
// linearly. Eight covers the paper's small update transactions (a list
// or tree operation on the benchmark key range reads a handful of
// nodes); past it the set indexes its entries.
const smallReads = 8

// maxRetainedReads caps the read-set size whose arrays a session keeps
// between transactions, so one huge transaction does not pin huge
// arrays on the session forever.
const maxRetainedReads = 256

// readSet maps each object the running attempt opened for reading to
// the version observed. Invisible to writers; validated lazily. The
// entries are two contiguous slices in open order, so validation is a
// plain loop. Up to smallReads entries a lookup scans them; past that,
// an open-addressing index (multiplicative pointer hash, linear
// probing) maps an object to its entry. Index slots carry the
// generation they were written in, so emptying the set bumps gen
// instead of clearing the table. The set belongs to the session (one
// attempt runs on it at a time), so its arrays outlive attempts and
// the descriptors of eager writers — allocated per attempt because
// they can never be recycled — stay small. Owner-private.
type readSet struct {
	objs  []*TObj
	vals  []Value
	index []readSlot // nil or a power of two long
	shift uint8      // 64 - log2(len(index))
	gen   uint32     // the live slots' generation; never 0 after reset
}

// readSlot is one index slot: the position of an entry in objs and
// vals, live while gen matches the set's. Pointer-free, so the table
// pins no object and the garbage collector does not scan it.
type readSlot struct{ gen, at uint32 }

// lookup returns the version recorded for obj, if any.
func (rs *readSet) lookup(obj *TObj) (Value, bool) {
	if len(rs.objs) <= smallReads {
		for i, o := range rs.objs {
			if o == obj {
				return rs.vals[i], true
			}
		}
		return nil, false
	}
	mask := len(rs.index) - 1
	for i := rs.hash(obj); ; i = (i + 1) & mask {
		s := rs.index[i]
		if s.gen != rs.gen {
			return nil, false
		}
		if rs.objs[s.at] == obj {
			return rs.vals[s.at], true
		}
	}
}

// record appends an entry for obj, which the set must not hold yet,
// indexing it once the set is past smallReads. The index stays at most
// half full, so probes stay short and always reach an empty slot.
func (rs *readSet) record(obj *TObj, v Value) {
	rs.objs = append(rs.objs, obj)
	rs.vals = append(rs.vals, v)
	switch n := len(rs.objs); {
	case n <= smallReads:
	case 2*n > len(rs.index):
		rs.index = make([]readSlot, max(32, 1<<bits.Len(uint(2*n-1))))
		rs.shift = uint8(64 - bits.TrailingZeros(uint(len(rs.index))))
		rs.indexAll()
	case n == smallReads+1:
		rs.indexAll()
	default:
		rs.insert(n - 1)
	}
}

// indexAll indexes every entry: the linear-scan entries when the set
// first outgrows smallReads, and all of them after the table grows.
func (rs *readSet) indexAll() {
	for at := range rs.objs {
		rs.insert(at)
	}
}

func (rs *readSet) insert(at int) {
	mask := len(rs.index) - 1
	i := rs.hash(rs.objs[at])
	for rs.index[i].gen == rs.gen {
		i = (i + 1) & mask
	}
	rs.index[i] = readSlot{gen: rs.gen, at: uint32(at)}
}

// hash is Fibonacci hashing of the object's address: the top bits of
// the product, which mix in every address bit (heap objects never
// move, so the address is a stable key).
func (rs *readSet) hash(obj *TObj) int {
	return int(uint64(uintptr(unsafe.Pointer(obj))) * 0x9e3779b97f4a7c15 >> rs.shift)
}

// reset empties the set, releasing the recorded objects and Values so
// an idle session pins nothing. A set that grew past maxRetainedReads
// entries drops its arrays rather than keeping them for the next
// transaction.
func (rs *readSet) reset() {
	if len(rs.objs) > maxRetainedReads {
		rs.objs, rs.vals, rs.index = nil, nil, nil
	} else {
		clear(rs.objs)
		clear(rs.vals)
		rs.objs, rs.vals = rs.objs[:0], rs.vals[:0]
	}
	if rs.gen++; rs.gen == 0 {
		// Wrapped: a slot last written 2^32 resets ago would look live.
		clear(rs.index)
		rs.gen = 1
	}
}

// lookupRead returns the version the transaction has recorded for obj,
// if any.
func (tx *Tx) lookupRead(obj *TObj) (Value, bool) { return tx.sess.reads.lookup(obj) }

// recordRead notes that the transaction observed version v of obj.
// The caller has already checked lookupRead and found nothing, and
// only the owning goroutine mutates the read set, so no duplicate
// check is repeated here — this is the hottest read path.
func (tx *Tx) recordRead(obj *TObj, v Value) { tx.sess.reads.record(obj, v) }

// readsStillCommitted re-checks every recorded read against the
// object's current committed version.
// This is the plain (open-time and read-only-commit) scan; writer
// commits use the lock-aware readsCommittedAndUnowned.
func (tx *Tx) readsStillCommitted() bool {
	return tx.validateReads(false)
}

// readsCommittedAndUnowned is the writer commit's read-set scan, run
// while tx holds its write set's commit stripes: each entry must match
// the committed version and its stripe must not be held by another
// committing writer. Treating a foreign stripe lock as a conflict is
// what preserves the old global commitMu's invariant — see
// readStillValid for the ordering argument.
func (tx *Tx) readsCommittedAndUnowned() bool {
	return tx.validateReads(true)
}

func (tx *Tx) validateReads(lockAware bool) bool {
	rs := &tx.sess.reads
	vals := rs.vals[:len(rs.objs)]
	for i, obj := range rs.objs {
		if !tx.readStillValid(obj, vals[i], lockAware) {
			return false
		}
	}
	return true
}

// readStillValid checks one read-set entry. In lock-aware mode the
// stripe-owner load precedes the version load, and that order is
// load-bearing: a writer W2 that invalidates obj holds obj's stripe
// from before its own validation until after its status CAS, so a
// passing entry pins the owner load before W2's stripe acquisition —
// and hence tx's whole validation (which starts after tx acquired its
// own stripes) before W2's. Two writers racing on overlapping
// read/write sets would each need their validation ordered before the
// other's acquisition, which is impossible, so at least one fails.
// (Checked the other way around, a stale version read could pair with
// a post-release owner read and let both commit.)
func (tx *Tx) readStillValid(obj *TObj, seen Value, lockAware bool) bool {
	if lockAware {
		if owner := tx.stm.stripes[obj.stripe].owner.Load(); owner != nil && owner != tx {
			return false
		}
	}
	return obj.committed() == seen
}

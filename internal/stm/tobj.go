package stm

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Value is the interface transactional data must implement. Opening an
// object for writing hands the transaction a private clone; the clone
// becomes the committed version if and only if the transaction
// commits. Clone must return a deep-enough copy: mutations of the
// clone must not be observable through the original. (References to
// other TObj handles may be shared — the handles themselves are
// immutable.)
type Value interface {
	Clone() Value
}

// locator is the DSTM indirection record. The object's current
// committed version is determined by the owner's frozen status:
//
//	owner nil or committed -> newVal
//	owner aborted          -> oldVal
//	owner active           -> oldVal (the tentative newVal is private)
//
// Locators are immutable once installed; ownership changes by
// installing a whole new locator with CAS.
type locator struct {
	owner  *Tx
	oldVal Value
	newVal Value
}

// current returns the committed version recorded by this locator,
// which is stable provided the owner is not active.
func (l *locator) current() Value {
	if l.owner == nil || l.owner.Status() == StatusCommitted {
		return l.newVal
	}
	return l.oldVal
}

// TObj is a transactional object: a shared handle whose versioned
// contents are read and written only inside transactions. The zero
// value is not usable; create handles with NewTObj.
type TObj struct {
	loc atomic.Pointer[locator]
	// stripe indexes the commit-stripe lock guarding writer commits
	// that include this object (see commitStripe in stm.go). Stripes
	// are dealt round-robin from a process-wide counter at creation:
	// cheaper and more evenly spread than hashing the pointer, and
	// deterministic enough for tests to construct same-stripe and
	// distinct-stripe object pairs. Stripe indices are STM-independent
	// (a TObj is not bound to an STM instance); each STM owns its own
	// lock array of the shared, fixed size.
	stripe uint32
	// name is an optional debugging label (see NewNamedTObj).
	name string
}

// stripeSeq deals commit-stripe indices to new objects. commitStripes
// is a power of two, so uint32 wraparound keeps the deal uniform.
var stripeSeq atomic.Uint32

// nextStripe returns the commit-stripe index for a newly created
// transactional object. Every constructor that builds a TObj — NewTObj
// and the typed Var variants, which embed the TObj directly — must
// assign it, or the object silently joins stripe 0 and writer commits
// touching it re-serialize.
func nextStripe() uint32 { return stripeSeq.Add(1) % commitStripes }

// NewTObj creates a transactional object whose initial committed
// version is v (which may be nil for "not yet populated" slots, as in
// optional tree children).
func NewTObj(v Value) *TObj {
	o := &TObj{stripe: nextStripe()}
	o.loc.Store(&locator{newVal: v})
	return o
}

// NewNamedTObj creates a transactional object with a debugging label
// reported by String. Tests and the scheduling simulator use names;
// the hot paths never touch them.
func NewNamedTObj(name string, v Value) *TObj {
	o := NewTObj(v)
	o.name = name
	return o
}

// String identifies the object for debugging.
func (o *TObj) String() string {
	if o.name != "" {
		return "tobj(" + o.name + ")"
	}
	return fmt.Sprintf("tobj(%p)", o)
}

// committed returns the object's current committed version. The value
// is exact at some instant during the call; with an active owner the
// answer is the owner's pre-image, which is correct because an active
// owner's tentative version is private.
func (o *TObj) committed() Value {
	return o.loc.Load().current()
}

// Peek returns the current committed version outside any transaction.
// It is intended for post-run verification in tests and benchmarks;
// concurrent use is safe but yields only a single-object snapshot.
func (o *TObj) Peek() Value {
	return o.committed()
}

// openWrite acquires the object for writing on behalf of tx and
// returns the transaction's private version. The conflict protocol is
// the paper's: if an active enemy owns the object, tx's contention
// manager chooses between aborting the enemy and waiting, and the STM
// retries until the object is free or tx itself dies.
func (o *TObj) openWrite(tx *Tx) (Value, error) { return o.openWriteAs(tx, nil) }

// openWriteAs is openWrite with an optional replacement factory: when
// mk is non-nil, a fresh acquisition installs mk() as the private
// version instead of cloning the committed one. Callers that overwrite
// the whole value (the typed Write) use it to skip a clone they would
// immediately discard. When the transaction already owns the object,
// the existing private version is returned and the caller overwrites
// it in place.
func (o *TObj) openWriteAs(tx *Tx, mk func() Value) (Value, error) {
	if tx.stm.lazy {
		return o.openWriteLazy(tx, mk)
	}
	for spin := 0; ; spin++ {
		if err := tx.step(); err != nil {
			return nil, err
		}
		if h := tx.stm.openHook; h != nil {
			h(tx, o)
		}
		l := o.loc.Load()
		if l.owner == tx {
			return l.newVal, nil // already ours (write after write)
		}
		if enemy := l.owner; enemy != nil && enemy.Status() == StatusActive {
			if err := resolve(tx, enemy, o); err != nil {
				return nil, err
			}
			continue
		}
		// Owner is nil or frozen: l.current() is stable for as long as
		// the locator stays installed, and our CAS fails if it does
		// not.
		cur := l.current()
		nl := &locator{owner: tx, oldVal: cur}
		switch {
		case mk != nil:
			nl.newVal = mk()
		case cur != nil:
			nl.newVal = cur.Clone()
		}
		if !o.loc.CompareAndSwap(l, nl) {
			tx.backoff(spin)
			continue
		}
		tx.writes = append(tx.writes, o)
		tx.opens++
		tx.sess.mgr.Opened(tx, true)
		tx.sess.stats.opens.Add(1)
		if rec := tx.sess.rec; rec != nil {
			rec.open(o, true)
		}
		tx.maybeYield()
		// Writing this object may form part of an inconsistent view;
		// early validation keeps the transaction opaque.
		if !tx.validate() {
			return nil, ErrAborted
		}
		return nl.newVal, nil
	}
}

// openRead records the object's committed version in tx's read set and
// returns it. Reads are invisible to writers, but an active writer is
// a conflict for the reader (as in DSTM): the contention manager
// arbitrates before the read can proceed.
func (o *TObj) openRead(tx *Tx) (Value, error) {
	if err := tx.step(); err != nil {
		return nil, err
	}
	// Read own write. (The nil check spares eager reads a map call.)
	if tx.lazyWrites != nil {
		if v, ok := tx.lazyWrites[o]; ok {
			return v, nil
		}
	}
	if l := o.loc.Load(); l.owner == tx {
		return l.newVal, nil
	}
	// Repeated read: return the recorded version for a stable view.
	if v, ok := tx.lookupRead(o); ok {
		return v, nil
	}
	for {
		if err := tx.step(); err != nil {
			return nil, err
		}
		if h := tx.stm.openHook; h != nil {
			h(tx, o)
		}
		l := o.loc.Load()
		if l.owner == tx {
			return l.newVal, nil
		}
		if enemy := l.owner; enemy != nil && enemy.Status() == StatusActive {
			if err := resolve(tx, enemy, o); err != nil {
				return nil, err
			}
			continue
		}
		v := l.current()
		tx.recordRead(o, v)
		tx.opens++
		tx.sess.mgr.Opened(tx, false)
		tx.sess.stats.opens.Add(1)
		if rec := tx.sess.rec; rec != nil {
			rec.open(o, false)
		}
		tx.maybeYield()
		if !tx.validate() {
			return nil, ErrAborted
		}
		return v, nil
	}
}

func (tx *Tx) noteConflict() { tx.sess.stats.conflicts.Add(1) }

// resolve runs one round of the contention-management protocol between
// tx and enemy over object o, translating the manager's decision into
// an abort of one side or an (already-performed) wait. The manager
// consultation is timed into WaitNs: a Wait decision has already slept
// inside ResolveConflict, so this one measurement captures exactly the
// policy-chosen waiting that distinguishes managers with and without
// progress guarantees. The same measurement accrues to the logical
// transaction's own counter (Tx.WaitNs) and, on sampled transactions,
// to a conflict event naming the enemy and the ruling.
func resolve(tx, enemy *Tx, o *TObj) error {
	tx.noteConflict()
	t0 := time.Now()
	d := tx.sess.mgr.ResolveConflict(tx, enemy)
	dt := int64(time.Since(t0))
	tx.sess.stats.waitNs.Add(dt)
	tx.shared.waitNs.Add(dt)
	if rec := tx.sess.rec; rec != nil {
		rec.conflict(o, enemy, d, dt)
	}
	switch d {
	case AbortOther:
		enemy.Abort()
		tx.sess.stats.enemyAborts.Add(1)
	case AbortSelf:
		tx.setCause(CauseEnemyAbort)
		tx.Abort()
		return ErrAborted
	case Wait:
		// The manager has already waited/backed off per its policy.
	default:
		return fmt.Errorf("stm: contention manager returned invalid decision %d", d)
	}
	return tx.step()
}

// OpenWrite opens the object for writing inside tx and returns the
// transaction's private, mutable version (a clone of the committed
// version, nil if the committed version is nil). The returned error is
// non-nil when the transaction has been aborted or halted and must be
// propagated out of the transactional function.
func (tx *Tx) OpenWrite(o *TObj) (Value, error) { return o.openWrite(tx) }

// OpenRead opens the object for reading inside tx and returns the
// committed version observed (nil if the committed version is nil).
// The value must be treated as immutable. The returned error is
// non-nil when the transaction has been aborted or halted and must be
// propagated.
func (tx *Tx) OpenRead(o *TObj) (Value, error) { return o.openRead(tx) }

package kv

import (
	"errors"
	"math"
	"strconv"
	"time"

	"repro/internal/container"
	"repro/internal/stm"
	"repro/internal/wal"
)

// ErrNotInteger is returned by Incr when the key holds a value that
// does not parse as a signed 64-bit integer. It surfaces out of the
// transaction unchanged (a user error, not a conflict), so the whole
// transaction — an EXEC block included — aborts atomically.
var ErrNotInteger = errors.New("kv: value is not an integer")

// findEntry reads key's live entry inside tx at instant now, or nil —
// the read-only lookup under Get, TTL and Incr. Expired entries read
// as absent without writing, so a hot read never acquires ownership.
func (st *Store) findEntry(tx *stm.Tx, now int64, key string) (*entry, error) {
	head, _, err := st.chain(tx, key)
	if err != nil {
		return nil, err
	}
	for e := head; e != nil; e = e.next {
		if e.key == key {
			if e.dead(now) {
				return nil, nil
			}
			return e, nil
		}
	}
	return nil, nil
}

// GetTx reads key's string value inside tx at instant now (see
// findEntry for the expiry contract). A live key of a container kind
// yields ErrWrongType.
func (st *Store) GetTx(tx *stm.Tx, now int64, key string) (string, bool, error) {
	e, err := st.typedEntry(tx, now, key, kindString)
	if err != nil || e == nil {
		return "", false, err
	}
	return e.val, true, nil
}

// SetTx writes key=val inside tx at instant now. A ttl > 0 arms
// expiry at now+ttl; ttl <= 0 stores the key without expiry (and, like
// Redis SET, clears any previous TTL).
func (st *Store) SetTx(tx *stm.Tx, now int64, key, val string, ttl time.Duration) error {
	var expireAt int64
	if ttl > 0 {
		expireAt = now + int64(ttl)
		if expireAt < now {
			expireAt = math.MaxInt64 // deadline past the clock's range: lives forever
		}
	}
	return st.putTx(tx, now, key, val, expireAt)
}

// putTx writes key=val with an explicit expiry deadline (0 = none) —
// the single chain-rebuild under Set and Incr. Like Redis SET, it
// overwrites a container entry wholesale.
func (st *Store) putTx(tx *stm.Tx, now int64, key, val string, expireAt int64) error {
	head, bv, err := st.chain(tx, key)
	if err != nil {
		return err
	}
	neu := &entry{key: key, val: val, expireAt: expireAt}
	if err := stm.Write(tx, bv, st.relink(head, neu, now)); err != nil {
		return err
	}
	capture(tx, wal.Op{Key: key, Val: val, ExpireAt: expireAt})
	return nil
}

// relink rebuilds the chain at head with neu in place of any entry for
// its key, dropping entries dead at now in passing — writers reap
// lazily so Sweep has less to do. An insert that leaves the chain
// longer than container.GrowChain raises the shard's advisory resize
// signal (an atomic flag, retry-safe; Groom acts on it); an overwrite,
// of a live or an expired entry, leaves the shard's entry count and so
// its load factor unchanged.
func (st *Store) relink(head, neu *entry, now int64) *entry {
	rebuilt := neu
	created := true
	chain := 1
	for e := head; e != nil; e = e.next {
		if e.key == neu.key {
			created = false
			continue
		}
		if e.dead(now) {
			continue
		}
		rebuilt = e.with(rebuilt)
		chain++
	}
	if created && chain > container.GrowChain {
		st.shard(neu.key).SignalGrowth()
	}
	return rebuilt
}

// DelTx removes key inside tx at instant now, reporting whether a live
// entry was removed. Dead entries encountered in the chain are dropped
// too, but count for nothing.
func (st *Store) DelTx(tx *stm.Tx, now int64, key string) (bool, error) {
	head, bv, err := st.chain(tx, key)
	if err != nil {
		return false, err
	}
	found := false
	for e := head; e != nil; e = e.next {
		if e.key == key {
			found = !e.dead(now)
			break
		}
	}
	live, dropped := pruneKey(head, key, now)
	if !found && dropped == 0 {
		return false, nil // absent: stay read-only, no write conflict
	}
	if err := stm.Write(tx, bv, live); err != nil {
		return false, err
	}
	if found {
		// Only a live removal is logged; pruning already-dead entries
		// is a physical cleanup replay reproduces by expiry alone.
		capture(tx, wal.Op{Key: key, Del: true})
	}
	return found, nil
}

// pruneKey rebuilds head without key and without entries dead at now,
// reporting how many entries were dropped for either reason.
func pruneKey(head *entry, key string, now int64) (*entry, int) {
	var live *entry
	dropped := 0
	for e := head; e != nil; e = e.next {
		if e.key == key || e.dead(now) {
			dropped++
			continue
		}
		live = e.with(live)
	}
	return live, dropped
}

// IncrTx adds delta to the integer value at key inside tx at instant
// now, creating the key at delta if absent or expired, and returns the
// new value. An existing key keeps its TTL, Redis-style; a fresh one
// stores without expiry. A non-integer value yields ErrNotInteger.
func (st *Store) IncrTx(tx *stm.Tx, now int64, key string, delta int64) (int64, error) {
	e, err := st.typedEntry(tx, now, key, kindString)
	if err != nil {
		return 0, err
	}
	n := int64(0)
	var expireAt int64
	if e != nil {
		n, err = strconv.ParseInt(e.val, 10, 64)
		if err != nil {
			return 0, ErrNotInteger
		}
		expireAt = e.expireAt
	}
	n += delta
	if err := st.putTx(tx, now, key, strconv.FormatInt(n, 10), expireAt); err != nil {
		return 0, err
	}
	return n, nil
}

// ExpireTx arms expiry at now+ttl on a live key of any kind,
// reporting whether the key existed. A ttl <= 0 deletes the key
// immediately (Redis EXPIRE with a non-positive TTL).
func (st *Store) ExpireTx(tx *stm.Tx, now int64, key string, ttl time.Duration) (bool, error) {
	if ttl <= 0 {
		return st.DelTx(tx, now, key)
	}
	expireAt := now + int64(ttl)
	if expireAt < now {
		expireAt = math.MaxInt64 // deadline past the clock's range: lives forever
	}
	ok, err := st.touchTx(tx, now, key, expireAt)
	if err != nil || !ok {
		return false, err
	}
	capture(tx, wal.Op{Key: key, Touch: true, ExpireAt: expireAt})
	return true, nil
}

// touchTx rebuilds key's chain with the entry's expiry deadline
// replaced — the kind-agnostic body of Expire and the replay form of
// a touch op. It reports whether a live entry was found; it does not
// capture (ExpireTx does).
func (st *Store) touchTx(tx *stm.Tx, now int64, key string, expireAt int64) (bool, error) {
	head, bv, err := st.chain(tx, key)
	if err != nil {
		return false, err
	}
	found := false
	var rebuilt *entry
	for e := head; e != nil; e = e.next {
		if e.dead(now) {
			continue
		}
		if e.key == key {
			found = true
			c := e.with(rebuilt)
			c.expireAt = expireAt
			rebuilt = c
			continue
		}
		rebuilt = e.with(rebuilt)
	}
	if !found {
		return false, nil // absent: stay read-only, no write conflict
	}
	return true, stm.Write(tx, bv, rebuilt)
}

// TTLTx reports key's remaining time to live at instant now: ok is
// false when the key is absent or expired; a live key without expiry
// reports NoTTL.
func (st *Store) TTLTx(tx *stm.Tx, now int64, key string) (time.Duration, bool, error) {
	e, err := st.findEntry(tx, now, key)
	if err != nil || e == nil {
		return 0, false, err
	}
	if e.expireAt == 0 {
		return NoTTL, true, nil
	}
	return time.Duration(e.expireAt - now), true, nil
}

// Get reads key's value in one atomic transaction.
func (st *Store) Get(key string) (string, bool, error) {
	now := st.now()
	return stm.Atomic2(st.s, func(tx *stm.Tx) (string, bool, error) {
		return st.GetTx(tx, now, key)
	})
}

// Set writes key=val (no expiry) in one atomic transaction.
func (st *Store) Set(key, val string) error { return st.SetTTL(key, val, 0) }

// SetTTL writes key=val with expiry after ttl (ttl <= 0: none) in one
// atomic transaction.
func (st *Store) SetTTL(key, val string, ttl time.Duration) error {
	return st.Atomically(func(tx *stm.Tx, now int64) error {
		return st.SetTx(tx, now, key, val, ttl)
	})
}

// Del removes the keys in one atomic transaction and returns how many
// live entries were removed.
func (st *Store) Del(keys ...string) (int, error) {
	removed := 0
	err := st.Atomically(func(tx *stm.Tx, now int64) error {
		// Accumulate in a per-attempt local and capture with a plain
		// assignment: retries overwrite the whole count (txpure's
		// blessed idiom) instead of relying on a top-of-body reset.
		n := 0
		for _, key := range keys {
			ok, err := st.DelTx(tx, now, key)
			if err != nil {
				return err
			}
			if ok {
				n++
			}
		}
		removed = n
		return nil
	})
	return removed, err
}

// Incr adds delta to the integer at key in one atomic transaction and
// returns the new value (see IncrTx).
func (st *Store) Incr(key string, delta int64) (int64, error) {
	var n int64
	err := st.Atomically(func(tx *stm.Tx, now int64) error {
		var err error
		n, err = st.IncrTx(tx, now, key, delta)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// MGet reads every key in one atomic transaction — a consistent
// multi-key snapshot: vals[i], present[i] reflect keys[i] at a single
// serialization point. Keys holding container values read as absent
// (Redis MGET never errors on type).
func (st *Store) MGet(keys ...string) (vals []string, present []bool, err error) {
	now := st.now()
	err = st.s.Atomically(func(tx *stm.Tx) error {
		vals = make([]string, len(keys))
		present = make([]bool, len(keys))
		for i, key := range keys {
			v, ok, err := st.GetTx(tx, now, key)
			if errors.Is(err, ErrWrongType) {
				continue
			}
			if err != nil {
				return err
			}
			vals[i], present[i] = v, ok
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, present, nil
}

// MSet writes every pair in one atomic transaction: concurrent readers
// see all of the writes or none.
func (st *Store) MSet(pairs ...KV) error {
	return st.Atomically(func(tx *stm.Tx, now int64) error {
		for _, p := range pairs {
			if err := st.SetTx(tx, now, p.K, p.V, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// Expire arms expiry on key after ttl in one atomic transaction,
// reporting whether the key existed (see ExpireTx).
func (st *Store) Expire(key string, ttl time.Duration) (bool, error) {
	var ok bool
	err := st.Atomically(func(tx *stm.Tx, now int64) error {
		var err error
		ok, err = st.ExpireTx(tx, now, key, ttl)
		return err
	})
	return ok, err
}

// TTL reports key's remaining time to live in one atomic transaction
// (see TTLTx).
func (st *Store) TTL(key string) (time.Duration, bool, error) {
	now := st.now()
	return stm.Atomic2(st.s, func(tx *stm.Tx) (time.Duration, bool, error) {
		return st.TTLTx(tx, now, key)
	})
}

// Len counts the live keys in one consistent transaction over every
// shard — the whole-store scan that conflicts with all concurrent
// writers.
func (st *Store) Len() (int, error) {
	now := st.now()
	return stm.Atomic(st.s, func(tx *stm.Tx) (int, error) {
		total := 0
		for _, sh := range st.shards {
			b, err := sh.Buckets(tx)
			if err != nil {
				return 0, err
			}
			for i := 0; i < b.Len(); i++ {
				head, err := stm.Read(tx, b.At(i))
				if err != nil {
					return 0, err
				}
				for e := head; e != nil; e = e.next {
					if !e.dead(now) {
						total++
					}
				}
			}
		}
		return total, nil
	})
}

// Keys returns every live key in one consistent transaction, in no
// particular order.
func (st *Store) Keys() ([]string, error) {
	now := st.now()
	return stm.Atomic(st.s, func(tx *stm.Tx) ([]string, error) {
		var out []string
		for _, sh := range st.shards {
			b, err := sh.Buckets(tx)
			if err != nil {
				return nil, err
			}
			for i := 0; i < b.Len(); i++ {
				head, err := stm.Read(tx, b.At(i))
				if err != nil {
					return nil, err
				}
				for e := head; e != nil; e = e.next {
					if !e.dead(now) {
						out = append(out, e.key)
					}
				}
			}
		}
		return out, nil
	})
}

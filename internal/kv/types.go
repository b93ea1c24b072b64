package kv

// Typed values. An entry holds one of four value kinds — string,
// hash, list, zset — discriminated by entry.kind. The containers live
// *inside* the entry: mutating a hash field, list end or zset member
// goes through the container's own stm.Vars and never rewrites the
// bucket chain, so two transactions touching different fields of the
// same key do not conflict on the key. Only creation, whole-key
// deletion, expiry updates and the shard resize rebuild chains.
//
// Semantics follow Redis: a typed command against a key of another
// kind fails with ErrWrongType (SET is the exception — it overwrites
// anything, as Redis does); TTL attaches to the whole key whatever
// its kind; a container emptied by its last HDEL/POP/ZREM deletes the
// key, so empty containers are unrepresentable — replay reproduces
// the auto-delete by running the same code path.

import (
	"errors"

	"repro/internal/container"
	"repro/internal/stm"
)

// ErrWrongType is returned by typed operations against a key holding
// a value of another kind, mirroring Redis WRONGTYPE. Like
// ErrNotInteger it surfaces out of the transaction unchanged, so an
// EXEC block aborts atomically.
var ErrWrongType = errors.New("kv: operation against a key holding the wrong kind of value")

// ErrNotFloat is returned by ZAdd when a score is NaN (no total
// order) and by the server when a score argument does not parse.
var ErrNotFloat = errors.New("kv: value is not a valid float")

// kind discriminates an entry's value type. The numeric values match
// wal.Kind so captures convert by cast.
type kind uint8

const (
	kindString kind = iota
	kindHash
	kindList
	kindZSet
)

// String returns the Redis TYPE name.
func (k kind) String() string {
	switch k {
	case kindHash:
		return "hash"
	case kindList:
		return "list"
	case kindZSet:
		return "zset"
	default:
		return "string"
	}
}

// typedEntry reads key's live entry of kind k, or nil when the key is
// absent or expired — the lookup under every read-mostly typed
// operation. A live entry of another kind yields ErrWrongType.
func (st *Store) typedEntry(tx *stm.Tx, now int64, key string, k kind) (*entry, error) {
	e, err := st.findEntry(tx, now, key)
	if err != nil || e == nil {
		return nil, err
	}
	if e.kind != k {
		return nil, ErrWrongType
	}
	return e, nil
}

// containerEntry reads key's live entry of kind k, creating an empty
// container entry when the key is absent or expired — the
// find-or-create under every typed mutation (HSET, LPUSH, ZADD). The
// create path rebuilds the bucket chain (see relink); the found path
// reads it only, so mutations of an existing container never conflict
// on the chain.
func (st *Store) containerEntry(tx *stm.Tx, now int64, key string, k kind) (*entry, error) {
	head, bv, err := st.chain(tx, key)
	if err != nil {
		return nil, err
	}
	for e := head; e != nil; e = e.next {
		if e.key == key && !e.dead(now) {
			if e.kind != k {
				return nil, ErrWrongType
			}
			return e, nil
		}
	}
	neu := &entry{key: key, kind: k}
	// Containers are named after their key so the STM flight recorder
	// attributes conflicts to "list(jobs)" rather than an anonymous
	// commit stripe. The label is a plain string on the container's
	// variables (not an interned transaction label), so per-key
	// cardinality costs only the string.
	switch k {
	case kindHash:
		neu.hash = newNamedFieldTable("hash(" + key + ")")
	case kindList:
		neu.list = container.NewNamedDeque[string]("list(" + key + ")")
	case kindZSet:
		neu.zset = newNamedZSet("zset(" + key + ")")
	}
	if err := stm.Write(tx, bv, st.relink(head, neu, now)); err != nil {
		return nil, err
	}
	return neu, nil
}

// removeKeyTx physically removes key from its chain without logging a
// tombstone — the auto-delete behind a container's last HDEL/POP/
// ZREM. The container ops already in the capture replay through the
// same code path and reproduce the delete, so a tombstone would be
// redundant.
func (st *Store) removeKeyTx(tx *stm.Tx, now int64, key string) error {
	head, bv, err := st.chain(tx, key)
	if err != nil {
		return err
	}
	live, dropped := pruneKey(head, key, now)
	if dropped == 0 {
		return nil
	}
	return stm.Write(tx, bv, live)
}

// TypeTx reports key's value kind as its Redis TYPE name; ok is false
// when the key is absent or expired.
func (st *Store) TypeTx(tx *stm.Tx, now int64, key string) (string, bool, error) {
	e, err := st.findEntry(tx, now, key)
	if err != nil || e == nil {
		return "", false, err
	}
	return e.kind.String(), true, nil
}

// Type reports key's value kind in one atomic transaction.
func (st *Store) Type(key string) (string, bool, error) {
	now := st.now()
	return stm.Atomic2(st.s, func(tx *stm.Tx) (string, bool, error) {
		return st.TypeTx(tx, now, key)
	})
}

// checkValue verifies the entry's typed payload inside tx — the
// per-kind extension of Store.CheckInvariants. Containers must be
// internally consistent and non-empty (an empty container would mean
// an auto-delete was missed).
func (e *entry) checkValue(tx *stm.Tx) error {
	switch e.kind {
	case kindString:
		if e.hash != nil || e.list != nil || e.zset != nil {
			return errors.New("string entry carries a container")
		}
	case kindHash:
		n, err := checkFieldTable(tx, e.hash)
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("empty hash not auto-deleted")
		}
	case kindList:
		if err := e.list.CheckInvariants(tx); err != nil {
			return err
		}
		n, err := e.list.Len(tx)
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("empty list not auto-deleted")
		}
	case kindZSet:
		if err := e.zset.checkInvariants(tx); err != nil {
			return err
		}
	}
	return nil
}

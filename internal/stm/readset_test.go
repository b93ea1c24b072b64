package stm_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/intset"
	"repro/internal/stm"
)

// readTwice reads every variable, then reads them all again, and
// checks that the second pass returned the first pass's values without
// opening anything new: a repeated read must come from the read set.
func readTwice(tx *stm.Tx, vars []*stm.Var[int]) error {
	first := make([]int, len(vars))
	for i, v := range vars {
		x, err := stm.Read(tx, v)
		if err != nil {
			return err
		}
		first[i] = x
		// Re-read the ones before it too, so every index growth on the
		// way is crossed with lookups of entries indexed before it.
		if i&(i-1) == 0 {
			for j, w := range vars[:i+1] {
				if y, err := stm.Read(tx, w); err != nil || y != first[j] {
					return errors.Join(err, errors.New("repeated read differed from the recorded version"))
				}
			}
		}
	}
	opens := tx.Opens()
	for i, v := range vars {
		x, err := stm.Read(tx, v)
		if err != nil {
			return err
		}
		if x != first[i] {
			return errors.New("repeated read differed from the recorded version")
		}
	}
	if tx.Opens() != opens || opens != len(vars) {
		return errors.New("a repeated read missed the read set and opened the object again")
	}
	return nil
}

func newVars(n int) []*stm.Var[int] {
	vars := make([]*stm.Var[int], n)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	return vars
}

// TestReadSetThousandReads: a transaction past the 256-entry retention
// cap still answers every repeated read from its read set, and the
// session keeps none of its oversized arrays afterwards.
func TestReadSetThousandReads(t *testing.T) {
	s := stm.New()
	vars := newVars(1000)
	for range 2 {
		if err := s.Atomically(func(tx *stm.Tx) error { return readTwice(tx, vars) }); err != nil {
			t.Fatal(err)
		}
		if pins, capacity := stm.ReadSetFootprint(s); pins != 0 || capacity != 0 {
			t.Fatalf("idle session pins %d read-set slots and keeps capacity %d, want 0 and 0", pins, capacity)
		}
	}
	// A transaction within the cap keeps its arrays for the next one.
	if err := s.Atomically(func(tx *stm.Tx) error { return readTwice(tx, vars[:200]) }); err != nil {
		t.Fatal(err)
	}
	if pins, capacity := stm.ReadSetFootprint(s); pins != 0 || capacity < 200 {
		t.Fatalf("idle session pins %d read-set slots and keeps capacity %d, want 0 and at least 200", pins, capacity)
	}
}

// TestReadSetInvalidationBothSides: an enemy commit that changes one
// recorded read fails the reader's validation whether the entry sits
// in the linearly scanned prefix or among the indexed entries, for the
// read-only commit scan and the writer's lock-aware scan alike.
func TestReadSetInvalidationBothSides(t *testing.T) {
	for _, writer := range []bool{false, true} {
		for _, victim := range []int{3, 15} {
			s := stm.New()
			vars := newVars(20)
			out := stm.NewVar(0)
			attempts := 0
			if err := s.Atomically(func(tx *stm.Tx) error {
				attempts++
				sum := 0
				for _, v := range vars {
					x, err := stm.Read(tx, v)
					if err != nil {
						return err
					}
					sum += x
				}
				if attempts == 1 {
					// Another pooled session commits over one entry.
					if err := s.Atomically(func(e *stm.Tx) error {
						return stm.Write(e, vars[victim], 1000)
					}); err != nil {
						return err
					}
				}
				if writer {
					return stm.Write(tx, out, sum)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if attempts != 2 {
				t.Fatalf("writer=%v victim=%d: committed after %d attempts, want 2 (the first must fail validation)", writer, victim, attempts)
			}
			if got := s.TotalStats().AbortsValidation; got != 1 {
				t.Fatalf("writer=%v victim=%d: %d validation aborts, want 1", writer, victim, got)
			}
		}
	}
}

// TestReadSetGenerationWrap drives a reused session's read-set
// generation through its wrap to zero, once while the set has no index
// yet (so the wrap lands on freshly zeroed tables, whose slots must not
// read as live) and once over an index full of slots written just
// before the wrap.
func TestReadSetGenerationWrap(t *testing.T) {
	s := stm.New()
	vars := newVars(100)
	run := func(vars []*stm.Var[int]) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- s.Atomically(func(tx *stm.Tx) error { return readTwice(tx, vars) }) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("read-set transaction did not finish (index probe loops at the generation wrap?)")
		}
	}
	run(vars[:3]) // creates the session; no index yet
	stm.SetReadGen(s, math.MaxUint32)
	run(vars)
	stm.SetReadGen(s, math.MaxUint32-3)
	for range 8 {
		run(vars)
		run(vars[:3]) // bumps the generation without touching the index
	}
}

// TestReadSetReleasedAfterHaltAndPanic: an attempt abandoned by a halt
// or a panic skips recycling, yet the session it ran on must not keep
// its recorded objects or Values reachable.
func TestReadSetReleasedAfterHaltAndPanic(t *testing.T) {
	s := stm.New()
	vars := newVars(40)
	readAll := func(tx *stm.Tx) {
		for _, v := range vars {
			if _, err := stm.Read(tx, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	err := s.Atomically(func(tx *stm.Tx) error {
		readAll(tx)
		tx.Halt()
		_, err := stm.Read(tx, vars[0])
		return err
	})
	if !errors.Is(err, stm.ErrHalted) {
		t.Fatalf("halted attempt returned %v, want ErrHalted", err)
	}
	if pins, _ := stm.ReadSetFootprint(s); pins != 0 {
		t.Fatalf("after a halt the session pins %d read-set slots", pins)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("transaction did not panic")
			}
		}()
		_ = s.Atomically(func(tx *stm.Tx) error {
			readAll(tx)
			panic("boom")
		})
	}()
	if pins, _ := stm.ReadSetFootprint(s); pins != 0 {
		t.Fatalf("after a panic the session pins %d read-set slots", pins)
	}
}

// TestListAllocsIndependentOfReadSetSize: the read set's arrays and
// index are reused across transactions, so a steady-state list update
// that reads ~130 nodes allocates no more than one that reads a few.
func TestListAllocsIndependentOfReadSetSize(t *testing.T) {
	measure := func(keys int) float64 {
		s := stm.New()
		l := intset.NewList()
		for k := range keys {
			if err := s.Atomically(func(tx *stm.Tx) error {
				_, err := l.Insert(tx, 2*k)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		end := 2 * keys // past every key, so each op walks the whole list
		return testing.AllocsPerRun(200, func() {
			if err := s.Atomically(func(tx *stm.Tx) error {
				_, err := l.Insert(tx, end)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.Atomically(func(tx *stm.Tx) error {
				_, err := l.Remove(tx, end)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(4), measure(128)
	if large > small {
		t.Fatalf("Insert+Remove allocates %.1f objects on a 128-key list, %.1f on a 4-key list", large, small)
	}
	t.Logf("Insert+Remove: %.1f allocs (4 keys), %.1f (128 keys)", small, large)
}

// TestOpenAfterEnemyCommitIsOpaque: an enemy aborts an attempt between
// its status check and its locator load on b, takes a from it and
// commits a move from a to b. The doomed attempt's open of b must fail
// rather than hand back the enemy's b beside its own private a — for
// a write (a blind Update has an empty read set) and for a read that
// follows a write.
func TestOpenAfterEnemyCommitIsOpaque(t *testing.T) {
	for _, read := range []bool{false, true} {
		var a, b *stm.Var[int]
		var s *stm.STM
		fired := false
		s = stm.New(stm.WithOpenHook(func(tx *stm.Tx, o *stm.TObj) {
			if fired || o != b.Obj() {
				return
			}
			fired = true
			tx.Abort()
			if err := s.Atomically(func(e *stm.Tx) error {
				if err := stm.Update(e, a, func(v int) int { return v - 1 }); err != nil {
					return err
				}
				return stm.Update(e, b, func(v int) int { return v + 1 })
			}); err != nil {
				t.Error(err)
			}
		}))
		a, b = stm.NewVar(10), stm.NewVar(0)
		var sums []int
		if err := s.Atomically(func(tx *stm.Tx) error {
			var av, bv int
			if err := stm.Update(tx, a, func(v int) int { av = v; return v - 1 }); err != nil {
				return err
			}
			var err error
			if read {
				if bv, err = stm.Read(tx, b); err == nil {
					err = stm.Write(tx, b, bv+1)
				}
			} else {
				err = stm.Update(tx, b, func(v int) int { bv = v; return v + 1 })
			}
			if err != nil {
				return err
			}
			sums = append(sums, av+bv)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !fired {
			t.Fatal("the open hook never fired")
		}
		for _, sum := range sums {
			if sum != 10 {
				t.Fatalf("read=%v: an attempt saw a+b = %d, want 10 (sums %v)", read, sum, sums)
			}
		}
		if got := a.Peek() + b.Peek(); got != 10 {
			t.Fatalf("read=%v: a+b = %d after commit, want 10", read, got)
		}
	}
}

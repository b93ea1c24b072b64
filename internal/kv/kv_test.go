package kv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/stm"
)

// fakeClock is a hand-advanced monotonic time source for deterministic
// expiry tests.
type fakeClock struct {
	t atomic.Int64
}

func (c *fakeClock) now() int64              { return c.t.Load() }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

// TestStoreBasicOps exercises the single-client contract of every
// typed operation.
func TestStoreBasicOps(t *testing.T) {
	st := New(stm.New())
	if _, ok, err := st.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v, err=%v; want false, nil", ok, err)
	}
	if err := st.Set("a", "1"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := st.Get("a"); err != nil || !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v, %v; want \"1\", true, nil", v, ok, err)
	}
	if n, err := st.Incr("a", 41); err != nil || n != 42 {
		t.Fatalf("Incr(a, 41) = %d, %v; want 42, nil", n, err)
	}
	if n, err := st.Incr("fresh", -2); err != nil || n != -2 {
		t.Fatalf("Incr(fresh, -2) = %d, %v; want -2, nil", n, err)
	}
	if err := st.Set("text", "nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Incr("text", 1); !errors.Is(err, ErrNotInteger) {
		t.Fatalf("Incr on non-integer = %v; want ErrNotInteger", err)
	}
	if err := st.MSet(KV{"x", "10"}, KV{"y", "20"}, KV{"z", "30"}); err != nil {
		t.Fatal(err)
	}
	vals, present, err := st.MGet("x", "nope", "z")
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || present[1] || !present[2] || vals[0] != "10" || vals[2] != "30" {
		t.Fatalf("MGet = %v, %v", vals, present)
	}
	if n, err := st.Del("x", "nope", "y"); err != nil || n != 2 {
		t.Fatalf("Del = %d, %v; want 2, nil", n, err)
	}
	if n, err := st.Len(); err != nil || n != 4 { // a, fresh, text, z
		t.Fatalf("Len = %d, %v; want 4, nil", n, err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if want := []string{"a", "fresh", "text", "z"}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("Keys = %v; want %v", keys, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreExpiry pins the TTL contract on a hand-advanced clock: TTL
// readouts, lazy reads of dead entries, Redis-style TTL clearing on
// SET, TTL preservation across INCR, and EXPIRE with a non-positive
// TTL acting as DEL.
func TestStoreExpiry(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	if err := st.SetTTL("k", "v", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ttl, ok, err := st.TTL("k"); err != nil || !ok || ttl != 100*time.Millisecond {
		t.Fatalf("TTL = %v, %v, %v; want 100ms, true, nil", ttl, ok, err)
	}
	clk.advance(60 * time.Millisecond)
	if ttl, ok, _ := st.TTL("k"); !ok || ttl != 40*time.Millisecond {
		t.Fatalf("TTL after 60ms = %v, %v; want 40ms, true", ttl, ok)
	}
	clk.advance(40 * time.Millisecond)
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("expired key still readable")
	}
	if _, ok, _ := st.TTL("k"); ok {
		t.Fatal("expired key still has TTL")
	}
	// SET clears TTL; INCR preserves it.
	if err := st.SetTTL("n", "5", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.Set("n", "5"); err != nil {
		t.Fatal(err)
	}
	if ttl, ok, _ := st.TTL("n"); !ok || ttl != NoTTL {
		t.Fatalf("TTL after plain SET = %v, %v; want NoTTL, true", ttl, ok)
	}
	if _, err := st.Expire("n", time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Incr("n", 1); err != nil {
		t.Fatal(err)
	}
	if ttl, ok, _ := st.TTL("n"); !ok || ttl != time.Second {
		t.Fatalf("TTL after INCR = %v, %v; want 1s, true", ttl, ok)
	}
	// EXPIRE with non-positive TTL deletes.
	if ok, err := st.Expire("n", 0); err != nil || !ok {
		t.Fatalf("Expire(n, 0) = %v, %v; want true, nil", ok, err)
	}
	if _, ok, _ := st.Get("n"); ok {
		t.Fatal("key survived EXPIRE 0")
	}
	// EXPIRE on a missing key reports false.
	if ok, err := st.Expire("ghost", time.Second); err != nil || ok {
		t.Fatalf("Expire(ghost) = %v, %v; want false, nil", ok, err)
	}
}

// TestStoreExpiryMonotonic is the monotonicity contract: a key is
// readable exactly until the clock reaches its expiry, and once it has
// been observed expired no later read sees it alive (without an
// intervening write). The clock is hand-advanced in steps; after each
// step every key is probed concurrently and must read as alive iff its
// deadline is still ahead — deterministic on any host, since the clock
// only moves between probe rounds.
func TestStoreExpiryMonotonic(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithClock(clk.now))
	const keys = 16
	const step = 10 * time.Millisecond
	for i := 0; i < keys; i++ {
		if err := st.SetTTL(fmt.Sprintf("k%d", i), "v", time.Duration(i+1)*step); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= keys+1; round++ {
		clk.advance(step)
		var wg sync.WaitGroup
		errs := make([]error, keys)
		for i := 0; i < keys; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := fmt.Sprintf("k%d", i)
				_, ok, err := st.Get(key)
				if err != nil {
					errs[i] = err
					return
				}
				alive := i+1 > round // deadline (i+1)*step vs clock round*step
				if ok != alive {
					errs[i] = fmt.Errorf("round %d: Get(%s) alive=%v, want %v", round, key, ok, alive)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Sweep reaps everything that died; the store ends empty.
	removed, err := st.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if removed != keys {
		t.Fatalf("Sweep removed %d, want %d", removed, keys)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Fatalf("Len after sweep = %d, %v; want 0, nil", n, err)
	}
	if removed, err := st.Sweep(); err != nil || removed != 0 {
		t.Fatalf("second Sweep removed %d, %v; want 0, nil", removed, err)
	}
}

// hammerOps trims the per-goroutine operation count under -short so
// the full manager sweep stays fast in CI's race run.
func hammerOps(t *testing.T) int {
	if testing.Short() {
		return 40
	}
	return 150
}

// TestGrowthSignalOnlyOnInsert pins the shard resize signal to
// inserts: an overwrite cannot change a shard's load factor, so on an
// over-long chain it must not send Groom into a full-shard recount.
func TestGrowthSignalOnlyOnInsert(t *testing.T) {
	var clk fakeClock
	st := New(stm.New(), WithShards(1), WithBuckets(1), WithClock(clk.now)) // every key on one chain
	sh := st.shards[0]
	// run commits fn on the raw engine: Store.Atomically would Groom
	// the signal away before the test could look at it.
	run := func(fn func(tx *stm.Tx, now int64) error) {
		t.Helper()
		now := st.Now()
		if err := st.s.Atomically(func(tx *stm.Tx) error { return fn(tx, now) }); err != nil {
			t.Fatal(err)
		}
	}
	// expect checks the signal, then consumes it the way a recount
	// that declines to grow does.
	expect := func(what string, want bool) {
		t.Helper()
		if got := sh.GrowthSignalled(); got != want {
			t.Fatalf("%s: GrowthSignalled = %v, want %v", what, got, want)
		}
		noGrow := func(*stm.Tx, container.Buckets[*entry]) (int, error) { return 0, nil }
		if _, err := sh.MaybeGrow(st.s, noGrow, nil); err != nil {
			t.Fatal(err)
		}
	}
	run(func(tx *stm.Tx, now int64) error {
		for i := 0; i <= container.GrowChain; i++ {
			if err := st.SetTx(tx, now, fmt.Sprintf("k%d", i), strconv.Itoa(i), 0); err != nil {
				return err
			}
		}
		return nil
	})
	expect("inserts past GrowChain", true)

	run(func(tx *stm.Tx, now int64) error { return st.SetTx(tx, now, "k0", "x", 0) })
	expect("SET overwrite", false)
	run(func(tx *stm.Tx, now int64) error {
		_, err := st.IncrTx(tx, now, "k1", 1)
		return err
	})
	expect("INCR overwrite", false)
	run(func(tx *stm.Tx, now int64) error { return st.SetTx(tx, now, "new", "x", 0) })
	expect("SET insert", true)

	run(func(tx *stm.Tx, now int64) error {
		_, err := st.HSetTx(tx, now, "h", "f", "v")
		return err
	})
	expect("HSET creating a hash", true)
	run(func(tx *stm.Tx, now int64) error {
		_, err := st.HSetTx(tx, now, "h", "g", "v")
		return err
	})
	expect("HSET into an existing hash", false)

	// Replacing an expired entry is an overwrite too: the dead entry
	// was still counted. (Each rebuild drops the chain's other dead
	// entries, so each case expires its own key.)
	run(func(tx *stm.Tx, now int64) error { return st.SetTx(tx, now, "tmp1", "x", time.Second) })
	expect("SET inserting a key with a TTL", true)
	clk.advance(2 * time.Second)
	run(func(tx *stm.Tx, now int64) error { return st.SetTx(tx, now, "tmp1", "x", 0) })
	expect("SET over an expired key", false)
	run(func(tx *stm.Tx, now int64) error { return st.SetTx(tx, now, "tmp2", "x", time.Second) })
	expect("SET inserting a key with a TTL", true)
	clk.advance(2 * time.Second)
	run(func(tx *stm.Tx, now int64) error {
		_, err := st.HSetTx(tx, now, "tmp2", "f", "v")
		return err
	})
	expect("HSET over an expired key", false)
}

// TestStoreResizeUnderMutators races shard resizes against 32
// goroutines mutating concurrently: tiny initial bucket arrays, every
// writer inserting a disjoint key range with interleaved deletes, and
// grooming running both inline (top-level Set drains signals) and from
// a dedicated maintenance goroutine. Transactional resize must
// preserve every live key.
func TestStoreResizeUnderMutators(t *testing.T) {
	const writers = 32
	perWriter := hammerOps(t)
	s := stm.New(stm.WithManagerFactory(core.MustFactory("greedy")), stm.WithInterleavePeriod(4))
	st := New(s, WithShards(4), WithBuckets(1))
	var wg sync.WaitGroup
	errs := make([]error, writers+1)
	stop := make(chan struct{})
	var maint sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Groom(); err != nil {
				errs[writers] = err
				return
			}
			// Pace the drain: back-to-back whole-shard recounts would
			// serialize against every writer and starve the storm the
			// test exists to create.
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d:%d", g, i)
				if err := st.Set(key, strconv.Itoa(i)); err != nil {
					errs[g] = err
					return
				}
				if i%5 == 4 { // delete a fifth of our own keys
					if _, err := st.Del(fmt.Sprintf("w%d:%d", g, i-2)); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	maint.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	grew := false
	for _, b := range st.BucketsPerShard() {
		if b > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no shard ever grew")
	}
	deleted := perWriter / 5
	want := writers * (perWriter - deleted)
	n, err := st.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("Len after resize storm = %d, want %d", n, want)
	}
	for g := 0; g < writers; g++ { // spot-check survivors' values
		key := fmt.Sprintf("w%d:%d", g, perWriter-1)
		v, ok, err := st.Get(key)
		if err != nil || !ok || v != strconv.Itoa(perWriter-1) {
			t.Fatalf("Get(%s) = %q, %v, %v", key, v, ok, err)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// errFuseBlew is the livelock fuse for the transfer hammer: a manager
// whose policy can ping-pong aborts forever under symmetric load
// (aggressive, notably) gives up a transfer after a bounded number of
// attempts instead of hanging the test. A fused transfer simply never
// happened — conservation still holds — so the invariant checks stay
// exact; the fuse only bounds wall time.
var errFuseBlew = errors.New("kv hammer: livelock fuse blew")

// TestStoreTransferHammer is the MULTI/EXEC atomicity contract under
// every registry contention manager: movers transfer value between
// string keys in single transactions (the EXEC replay shape) while
// auditors take consistent MGet snapshots and assert conservation.
// Runs under -race in CI.
func TestStoreTransferHammer(t *testing.T) {
	const (
		accounts = 8
		movers   = 8
		auditors = 2
		initial  = 1000
	)
	ops := hammerOps(t)
	keys := make([]string, accounts)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct:%d", i)
	}
	for _, mgr := range core.Names() {
		t.Run(mgr, func(t *testing.T) {
			s := stm.New(stm.WithManagerFactory(core.MustFactory(mgr)), stm.WithInterleavePeriod(4))
			st := New(s, WithShards(4), WithBuckets(2))
			for _, k := range keys {
				if err := st.Set(k, strconv.Itoa(initial)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, movers+auditors)
			for g := 0; g < movers; g++ {
				rng := rand.New(rand.NewPCG(uint64(g)+1, 7))
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						from := keys[rng.Int64N(accounts)]
						to := keys[rng.Int64N(accounts)]
						amount := rng.Int64N(20) + 1
						// One transaction: the MULTI/EXEC replay shape —
						// INCRBY from -amount; INCRBY to amount.
						attempts := 0
						err := st.Atomically(func(tx *stm.Tx, now int64) error {
							//stm:impure(livelock fuse: the cross-retry attempt count is what bounds the ping-pong)
							if attempts++; attempts > 2000 {
								return errFuseBlew
							}
							if _, err := st.IncrTx(tx, now, from, -amount); err != nil {
								return err
							}
							_, err := st.IncrTx(tx, now, to, amount)
							return err
						})
						if err != nil && !errors.Is(err, errFuseBlew) {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			for a := 0; a < auditors; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < ops/4; i++ {
						now := st.Now()
						var vals []string
						var present []bool
						attempts := 0
						err := st.s.Atomically(func(tx *stm.Tx) error {
							//stm:impure(livelock fuse: the cross-retry attempt count is what bounds the ping-pong)
							if attempts++; attempts > 2000 {
								return errFuseBlew
							}
							vals = make([]string, len(keys))
							present = make([]bool, len(keys))
							for i, key := range keys {
								v, ok, err := st.GetTx(tx, now, key)
								if err != nil {
									return err
								}
								vals[i], present[i] = v, ok
							}
							return nil
						})
						if errors.Is(err, errFuseBlew) {
							continue // audit round skipped, not wrong
						}
						if err != nil {
							errs[movers+a] = err
							return
						}
						sum := int64(0)
						for i, v := range vals {
							if !present[i] {
								errs[movers+a] = fmt.Errorf("account %s vanished", keys[i])
								return
							}
							n, err := strconv.ParseInt(v, 10, 64)
							if err != nil {
								errs[movers+a] = err
								return
							}
							sum += n
						}
						if sum != accounts*initial {
							errs[movers+a] = fmt.Errorf("conservation broken: sum %d, want %d", sum, accounts*initial)
							return
						}
					}
				}(a)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			// Quiesced total must also balance.
			vals, _, err := st.MGet(keys...)
			if err != nil {
				t.Fatal(err)
			}
			sum := int64(0)
			for _, v := range vals {
				n, _ := strconv.ParseInt(v, 10, 64)
				sum += n
			}
			if sum != accounts*initial {
				t.Fatalf("final sum %d, want %d", sum, accounts*initial)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func seq(n int) latencies {
	l := make(latencies, n)
	for i := range l {
		l[i] = int64(n - i) // reversed, so quantile must sort
	}
	return l
}

func histOf(l latencies) hist {
	var h hist
	for _, v := range l {
		h.add(v)
	}
	return h
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.50, 500},
		{1000, 0.99, 990},
		{1010, 0.99, 1000},
		{20, 0.50, 10},
	} {
		got, err := seq(tc.n).quantile(tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

// TestQuantileRefusesThinTails pins the rule that a percentile needs at
// least minBeyond samples beyond it.
func TestQuantileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true},  // 10 beyond
		{999, 0.99, false},  // 9 beyond
		{100, 0.99, false},  // 1 beyond
		{20, 0.50, true},    // 10 beyond
		{19, 0.50, false},   // 9 beyond
		{0, 0.50, false},    // nothing at all
		{5000, 1.00, false}, // the maximum has nothing beyond it
	} {
		_, err := seq(tc.n).quantile(tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
		}
		h := histOf(seq(tc.n))
		if _, err := h.quantile(tc.q); (err == nil) != tc.ok {
			t.Errorf("hist p%g of %d samples: err %v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
		}
	}
}

// TestHistResolution checks that every latency falls in a bucket whose
// middle is within 1% of it, exact below 128 ns, and that buckets are
// contiguous and ordered.
func TestHistResolution(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 257, 1000, 16_000, 1e6, 123_456_789, histMaxNs} {
		i := histBucket(v)
		if i < prev || i >= histBuckets {
			t.Errorf("bucket(%d) = %d after %d, of %d", v, i, prev, histBuckets)
		}
		prev = i
		mid := histValue(i)
		if v < 128 && mid != float64(v) {
			t.Errorf("bucket of %d ns has middle %v, want exact", v, mid)
		}
		if math.Abs(mid-float64(v)) > 0.01*float64(v) {
			t.Errorf("bucket of %d ns has middle %v, more than 1%% away", v, mid)
		}
	}
	for i := 1; i < histBuckets; i++ {
		if histBucket(int64(histValue(i))) != i || histValue(i) <= histValue(i-1) {
			t.Fatalf("bucket %d: middle %v maps to bucket %d", i, histValue(i), histBucket(int64(histValue(i))))
		}
	}
	if histBucket(-5) != 0 || histBucket(1<<62) != histBuckets-1 {
		t.Errorf("out-of-range latencies are not clamped")
	}
}

func TestHistQuantileMatchesExact(t *testing.T) {
	l := make(latencies, 0, 100_000)
	for i := range 100_000 {
		l = append(l, int64(1000+i*37%500_000))
	}
	h := histOf(l)
	var m hist
	m.merge(&h)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact, err := l.quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.quantile(q)
		if err != nil || math.Abs(got-exact) > 0.01*exact {
			t.Errorf("p%g: hist %v, %v; exact %v", q*100, got, err, exact)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	in := []float64{5, 1, 3}
	if got := median(in); got != 3 {
		t.Errorf("median(5,1,3) = %v", got)
	}
	if in[0] != 5 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median() = %v", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3,0) = %v, want 0", got)
	}
}

func TestSummarizeKeepsLeastStolenEighth(t *testing.T) {
	p := phase{subs: 16}
	rec := newRecorder(p)
	snaps := make([]subSnap, 16)
	for k := range 16 {
		// Sub-window k has latencies 1000*(k+1)+i and steal above the
		// quiet threshold, falling with k: the quietest eighth is
		// sub-windows 14 and 15.
		for i := range 1000 {
			rec.lat[k].add(int64(1000*(k+1) + i))
		}
		rec.ops[k] = 1000
		snaps[k] = subSnap{steal: 0.1 + float64(15-k)/100, dur: 500 * time.Millisecond, srv: procSnap{cpuTicks: 10}}
	}
	m, err := summarize([]*recorder{&rec}, snaps, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.kept) != 2 || m.kept[0] != 14 || m.kept[1] != 15 {
		t.Fatalf("kept %v, want [14 15]", m.kept)
	}
	if m.throughput != 2000 || m.samples != 2000 || math.Abs(m.steal-0.105) > 1e-9 {
		t.Errorf("throughput %v samples %d steal %v, want 2000 ops/s over 2000 samples, steal 0.105", m.throughput, m.samples, m.steal)
	}
	if m.p50 != histValue(histBucket(15999)) || m.p99 != histValue(histBucket(16979)) {
		t.Errorf("p50 %v p99 %v, want the buckets of 15999 and 16979", m.p50, m.p99)
	}
	if want := 2 * 10 * 1e6 / clockTicks / 2000; math.Abs(m.cpuPerOp-want) > 1e-9 {
		t.Errorf("cpu per op %v, want %v", m.cpuPerOp, want)
	}
}

func TestSummarizeWidensForTailSamples(t *testing.T) {
	p := phase{subs: 8}
	a, b := newRecorder(p), newRecorder(p)
	snaps := make([]subSnap, 8)
	for k := range 8 {
		a.lat[k], b.lat[k] = histOf(seq(100)), histOf(seq(50))
		snaps[k] = subSnap{steal: 0.1 * float64(k+1), dur: 1}
	}
	// The quietest eighth holds 150 samples, too few for a p99; the
	// least stolen of the rest are added until 1000 are pooled.
	m, err := summarize([]*recorder{&a, &b}, snaps, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.kept) != 7 || m.kept[6] != 6 || m.samples != 1050 {
		t.Errorf("kept %v (%d samples), want sub-windows 0-6", m.kept, m.samples)
	}
}

func TestSummarizeKeepsEveryQuietSubWindow(t *testing.T) {
	p := phase{subs: 8}
	rec := newRecorder(p)
	snaps := make([]subSnap, 8)
	for k := range 8 {
		rec.lat[k] = histOf(seq(2000))
		snaps[k] = subSnap{steal: 0.002 * float64(k), dur: 1}
	}
	snaps[2].steal = 0.3
	m, err := summarize([]*recorder{&rec}, snaps, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 3, 4, 5, 6, 7}; !slices.Equal(m.kept, want) {
		t.Errorf("kept %v, want %v", m.kept, want)
	}
}

func TestRecorderFilesBySubWindow(t *testing.T) {
	t0 := time.Now()
	p := phase{start: t0.Add(-warmup), t0: t0, end: t0.Add(4 * time.Second), subs: 4, sub: time.Second}
	r := newRecorder(p)
	for i := range 100 {
		r.sample(t0.Add(-time.Duration(i+1)*time.Millisecond), 1) // warmup
	}
	r.sample(t0.Add(1500*time.Millisecond), 7)
	r.reply(t0.Add(1500 * time.Millisecond))
	r.reply(t0.Add(5 * time.Second)) // after the window
	if r.lat[0].n != 0 || r.lat[1].n != 1 || r.lat[1].counts[7] != 1 || r.ops[1] != 1 || r.ops[3] != 0 {
		t.Errorf("recorder ops %v, samples per sub-window %d %d %d %d", r.ops, r.lat[0].n, r.lat[1].n, r.lat[2].n, r.lat[3].n)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{every: 1}
	spans := []span{
		{id: 1, name: spanAtomically, start: 0, end: 100},
		{id: 2, parent: 1, name: spanAttempt, start: 10, end: 40},
		{id: 3, parent: 1, name: spanAttempt, start: 30, end: 60},  // overlaps 2
		{id: 4, parent: 1, name: spanAttempt, start: 90, end: 120}, // runs past its parent
	}
	tr.spans = spans
	tt := totals([]*tracer{tr})
	if got := tt.self[spanAtomically]; got != 100-50-10 {
		t.Errorf("atomically self = %d, want 40", got)
	}
	if tt.count[spanAttempt] != 3 || tt.total[spanAttempt] != 90 {
		t.Errorf("attempts: count %d total %d", tt.count[spanAttempt], tt.total[spanAttempt])
	}
}

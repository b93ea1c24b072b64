package main

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 from fewer samples is a guess about the tail, not
// a measurement of it.
const minBeyond = 10

// nearestRank returns the 1-based rank of the nearest-rank q-quantile
// of n samples, or an error when fewer than minBeyond samples lie
// beyond it.
func nearestRank(n int64, q float64) (int64, error) {
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %g of %d samples: undefined", q, n)
	}
	rank := int64(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	return rank, nil
}

// latencies holds exact per-operation latencies in nanoseconds, for
// the passes whose sample counts do not grow with the throughput.
type latencies []int64

// quantile returns the nearest-rank q-quantile of the samples, in
// nanoseconds (see nearestRank). It sorts l in place.
func (l latencies) quantile(q float64) (float64, error) {
	rank, err := nearestRank(int64(len(l)), q)
	if err != nil {
		return 0, err
	}
	if !slices.IsSorted(l) {
		slices.Sort(l)
	}
	return float64(l[rank-1]), nil
}

// hist counts latencies in buckets under 1% wide: exact below 128 ns,
// then 128 buckets per power of two, not log2 buckets, so a 30% gain
// is visible. Its size is fixed, so the main loops' recorders do not
// grow with the throughput they record: stm-list's rss_peak_mb is this
// process's, engine and recorders together.
type hist struct {
	counts []uint32 // histBuckets, allocated by the first add
	n      int64
}

const (
	histSubBits = 7
	histMaxNs   = 1<<40 - 1 // about 18 minutes; longer samples count as this
	histBuckets = (40 - histSubBits + 1) << histSubBits
)

// histBucket returns the bucket of a latency of ns nanoseconds.
func histBucket(ns int64) int {
	v := uint64(min(max(ns, 0), histMaxNs))
	if v < 1<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e is in [128, 256)
	return (e+1)<<histSubBits + int(v>>e) - 1<<histSubBits
}

// histValue returns the middle of bucket i, in nanoseconds.
func histValue(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	e := i>>histSubBits - 1
	lo := uint64(i&(1<<histSubBits-1)+1<<histSubBits) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

func (h *hist) add(ns int64) {
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the middle of the bucket holding the nearest-rank
// q-quantile, in nanoseconds (see nearestRank).
func (h *hist) quantile(q float64) (float64, error) {
	rank, err := nearestRank(h.n, q)
	if err != nil {
		return 0, err
	}
	var seen int64
	for i, c := range h.counts {
		if seen += int64(c); seen >= rank {
			return histValue(i), nil
		}
	}
	panic("hist: counts do not add up to n")
}

// median returns the middle of xs (mean of the two middles for even
// lengths) without reordering xs; zero for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, defined as zero when den is zero: a per-op count
// over no ops is "none happened", which the report prints as such.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket ladder. A sample of v ns below 2·subBuckets has a bucket of its
// own; above that every power of two [2^e, 2^(e+1)) is cut into subBuckets
// equal buckets, so no bucket is wider than 1/subBuckets of its lower edge.
// Samples of 2^maxExp ns (18.3 min) and more share the top bucket.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	maxExp     = 40
	numBuckets = (maxExp - subBits + 1) * subBuckets
)

// bucketOf returns the bucket a sample of v ≥ 0 ns lands in.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= maxExp {
		return numBuckets - 1
	}
	return (e-subBits+1)<<subBits | int(v>>(e-subBits))&(subBuckets-1)
}

// bucketLow returns the smallest sample bucket i holds; bucketLow(i+1) is
// the first one past it.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	return int64(subBuckets+i&(subBuckets-1)) << (i>>subBits - 1)
}

// Histogram records duration samples as counts over a fixed ladder of
// log-linear buckets, plus their exact sum, minimum and maximum. Observe is
// lock-free and allocation-free, and a histogram's size does not depend on
// how many samples it has seen. Percentiles are estimated to within one
// bucket width (1/16 of the value). The zero value is ready to use; all
// methods are safe for concurrent use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64 // smallest sample + 1; 0 until the first
	max    atomic.Int64
}

// Observe records one sample; a negative duration counts as zero. The bucket
// count is written last and read first (load), so a reader's minimum,
// maximum and sum already cover every sample it counted.
func (h *Histogram) Observe(d time.Duration) {
	v := max(int64(d), 0)
	h.sum.Add(v)
	for m := h.min.Load(); m == 0 || v < m-1; m = h.min.Load() {
		if h.min.CompareAndSwap(m, v+1) {
			break
		}
	}
	for m := h.max.Load(); v > m; m = h.max.Load() {
		if h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.counts[bucketOf(v)].Add(1)
}

// load copies the bucket counts into c and returns their total, the sample
// count every figure derived from c must use.
func (h *Histogram) load(c *[numBuckets]uint64) uint64 {
	var n uint64
	for i := range c {
		c[i] = h.counts[i].Load()
		n += c[i]
	}
	return n
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100), interpolated
// between nearest ranks, or zero when the histogram is empty. p ≤ 0 and
// p ≥ 100 give the exact minimum and maximum.
func (h *Histogram) Percentile(p float64) time.Duration {
	var c [numBuckets]uint64
	n := h.load(&c)
	lo, hi := h.bounds()
	return percentile(&c, n, p, lo, hi)
}

// bounds returns the exact minimum and maximum. Read after load, they cover
// every sample load counted.
func (h *Histogram) bounds() (lo, hi time.Duration) {
	return time.Duration(h.min.Load() - 1), time.Duration(h.max.Load())
}

// percentile estimates the p-th percentile of the n samples counted in c,
// held inside their exact range [lo, hi], which it returns outright for
// p ≤ 0 and p ≥ 100. The ranks either side of p/100·(n-1) are each placed
// inside the bucket of the sample they stand for, and interpolated.
func percentile(c *[numBuckets]uint64, n uint64, p float64, lo, hi time.Duration) time.Duration {
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return lo
	case p >= 100:
		return hi
	}
	rank := p / 100 * float64(n-1)
	k := uint64(rank)
	v := rankValue(c, k)
	if f := rank - float64(k); f > 0 {
		v += f * (rankValue(c, k+1) - v)
	}
	return min(max(time.Duration(v), lo), hi)
}

// rankValue estimates the k-th smallest (0-based) sample counted in c,
// spreading the samples of its bucket evenly over the bucket's width.
func rankValue(c *[numBuckets]uint64, k uint64) float64 {
	for i := range c {
		if k < c[i] {
			lo := bucketLow(i)
			return float64(lo) + float64(bucketLow(i+1)-lo)*(float64(k)+0.5)/float64(c[i])
		}
		k -= c[i]
	}
	return float64(bucketLow(numBuckets))
}

// countAtOrBelow returns how many of the samples counted in c are at most b,
// counting the buckets that lie wholly at or below b: exact when b is the
// last value of a bucket, short by the part of b's own bucket at or below b
// otherwise.
func countAtOrBelow(c *[numBuckets]uint64, b time.Duration) uint64 {
	var n uint64
	for _, v := range c[:bucketOf(int64(b)+1)] {
		n += v
	}
	return n
}

// Snapshot returns a point-in-time summary of the histogram, computed from
// one read of its buckets.
func (h *Histogram) Snapshot() Summary {
	var c [numBuckets]uint64
	n := h.load(&c)
	if n == 0 {
		return Summary{}
	}
	s := Summary{Count: int(n), Sum: time.Duration(h.sum.Load())}
	s.Mean = s.Sum / time.Duration(n)
	s.Min, s.Max = h.bounds()
	s.P50 = percentile(&c, n, 50, s.Min, s.Max)
	s.P95 = percentile(&c, n, 95, s.Min, s.Max)
	s.P99 = percentile(&c, n, 99, s.Min, s.Max)
	return s
}

// Summary is a point-in-time aggregate of a Histogram.
type Summary struct {
	Count int
	Sum   time.Duration
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// String renders the summary in a single human-readable line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v min=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
}

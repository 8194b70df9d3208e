package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// exactHistogram is the reference model: every sample kept, percentiles by
// nearest-rank interpolation over the sorted samples — what Histogram
// estimates to within one bucket.
type exactHistogram struct {
	samples []time.Duration
	sum     time.Duration
}

func (e *exactHistogram) Observe(d time.Duration) {
	e.samples = append(e.samples, d)
	e.sum += d
}

func (e *exactHistogram) sorted() []time.Duration {
	s := append([]time.Duration(nil), e.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func (e *exactHistogram) Percentile(p float64) time.Duration {
	s := e.sorted()
	if len(s) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return s[lo] + time.Duration((rank-float64(lo))*float64(s[hi]-s[lo]))
}

// atOrBelow counts the samples no larger than b.
func (e *exactHistogram) atOrBelow(b time.Duration) uint64 {
	var n uint64
	for _, d := range e.samples {
		if d <= b {
			n++
		}
	}
	return n
}

// withinBucket fails t unless got is within one bucket width of want: 1/16
// of want, plus the nanosecond either side may lose to truncation.
func withinBucket(t *testing.T, what string, got, want time.Duration) {
	t.Helper()
	if diff := got - want; diff > want/subBuckets+1 || -diff > want/subBuckets+1 {
		t.Errorf("%s = %v, want %v within 1/%d", what, got, want, subBuckets)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if got := h.Snapshot(); got != (Summary{}) {
		t.Errorf("Snapshot() = %+v, want zero", got)
	}
	if got := h.Percentile(50); got != 0 {
		t.Errorf("Percentile(50) = %v, want 0", got)
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		h.Observe(d * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 150*time.Millisecond || s.Mean != 30*time.Millisecond ||
		s.Min != 10*time.Millisecond || s.Max != 50*time.Millisecond {
		t.Errorf("Snapshot() = %+v, want count 5, sum 150ms, mean 30ms, min 10ms, max 50ms", s)
	}
	withinBucket(t, "Percentile(50)", h.Percentile(50), 30*time.Millisecond)
	if got, want := h.Percentile(0), 10*time.Millisecond; got != want {
		t.Errorf("Percentile(0) = %v, want %v", got, want)
	}
	if got, want := h.Percentile(100), 50*time.Millisecond; got != want {
		t.Errorf("Percentile(100) = %v, want %v", got, want)
	}
}

func TestHistogramPercentileInterpolation(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(100 * time.Millisecond)
	withinBucket(t, "Percentile(50)", h.Percentile(50), 50*time.Millisecond)
	withinBucket(t, "Percentile(25)", h.Percentile(25), 25*time.Millisecond)
}

func TestHistogramObserveAfterPercentile(t *testing.T) {
	var h Histogram
	h.Observe(30 * time.Millisecond)
	h.Observe(10 * time.Millisecond)
	_ = h.Percentile(50)
	h.Observe(20 * time.Millisecond)
	withinBucket(t, "Percentile(50)", h.Percentile(50), 20*time.Millisecond)
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, perG = 8, 100
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Snapshot().Count, goroutines*perG; got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

// TestHistogramConcurrentReaders runs Snapshot and Percentile against
// concurrent Observe calls: every summary a reader takes must be coherent
// (min ≤ p50 ≤ p99 ≤ max, counts never going back), and nothing is lost.
// Run with -race.
func TestHistogramConcurrentReaders(t *testing.T) {
	var h Histogram
	const writers, perW = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(time.Duration(1+(w*perW+i)%5000) * time.Microsecond)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if s.Count < last {
					t.Errorf("count went back: %d after %d", s.Count, last)
				}
				last = s.Count
				if s.Count > 0 && !(s.Min <= s.P50 && s.P50 <= s.P99 && s.P99 <= s.Max) {
					t.Errorf("incoherent summary %+v", s)
				}
				if p := h.Percentile(99); p < 0 || p > 5*time.Millisecond {
					t.Errorf("Percentile(99) = %v outside the observed range", p)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := h.Snapshot().Count; got != writers*perW {
		t.Errorf("Count = %d, want %d", got, writers*perW)
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	// Property: percentiles are non-decreasing in p, and bounded by min/max.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(time.Duration(v) * time.Microsecond)
		}
		s := h.Snapshot()
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 7 {
			cur := h.Percentile(p)
			if cur < prev || cur < s.Min || cur > s.Max {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMeanWithinBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(time.Duration(v) * time.Microsecond)
		}
		s := h.Snapshot()
		return s.Mean >= s.Min && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramMatchesExact compares the bucketed histogram with the
// reference model on seeded uniform, log-normal and bimodal samples:
// count, sum, min, max and mean exact, p50/p95/p99 within one bucket.
func TestHistogramMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, tc := range []struct {
		name string
		draw func() time.Duration
	}{
		{"uniform", func() time.Duration { return time.Duration(1000 + rng.Int63n(10_000_000)) }},
		{"lognormal", func() time.Duration {
			return time.Duration(math.Exp(rng.NormFloat64() + math.Log(100_000)))
		}},
		{"bimodal", func() time.Duration {
			if rng.Intn(10) < 8 {
				return time.Duration(50_000 + rng.NormFloat64()*5_000)
			}
			return time.Duration(5_000_000 + rng.NormFloat64()*500_000)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			var ref exactHistogram
			for i := 0; i < 20000; i++ {
				d := tc.draw()
				h.Observe(d)
				ref.Observe(d)
			}
			s, sorted := h.Snapshot(), ref.sorted()
			n := len(sorted)
			if s.Count != n || s.Sum != ref.sum || s.Min != sorted[0] || s.Max != sorted[n-1] ||
				s.Mean != ref.sum/time.Duration(n) {
				t.Errorf("Snapshot() = %+v, want count %d sum %v min %v max %v", s, n, ref.sum, sorted[0], sorted[n-1])
			}
			withinBucket(t, "P50", s.P50, ref.Percentile(50))
			withinBucket(t, "P95", s.P95, ref.Percentile(95))
			withinBucket(t, "P99", s.P99, ref.Percentile(99))
		})
	}
}

// TestHistogramBucketEdges pins the ladder: every bucket holds exactly
// [bucketLow(i), bucketLow(i+1)), is no wider than 1/16 of its lower edge
// past the unit buckets, and a cumulative count taken at the last value of
// a bucket equals the reference model's.
func TestHistogramBucketEdges(t *testing.T) {
	var h Histogram
	var ref exactHistogram
	for i := 0; i < numBuckets-1; i++ {
		lo, next := bucketLow(i), bucketLow(i+1)
		if bucketOf(lo) != i || bucketOf(next-1) != i {
			t.Fatalf("bucket %d = [%d, %d) but bucketOf gives %d and %d", i, lo, next, bucketOf(lo), bucketOf(next-1))
		}
		if i >= subBuckets && (next-lo)*subBuckets > lo {
			t.Fatalf("bucket %d = [%d, %d) is wider than 1/%d of its lower edge", i, lo, next, subBuckets)
		}
		for _, d := range []int64{lo, next - 1} {
			h.Observe(time.Duration(d))
			ref.Observe(time.Duration(d))
		}
	}
	if got := bucketOf(math.MaxInt64); got != numBuckets-1 {
		t.Errorf("bucketOf(MaxInt64) = %d, want the top bucket %d", got, numBuckets-1)
	}
	var c [numBuckets]uint64
	h.load(&c)
	for i := 0; i < numBuckets-1; i++ {
		b := time.Duration(bucketLow(i+1) - 1)
		if got, want := countAtOrBelow(&c, b), ref.atOrBelow(b); got != want {
			t.Errorf("le=%dns: %d samples, want %d", b, got, want)
		}
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Errorf("Snapshot().Count = %d, want 1", s.Count)
	}
	if s.String() == "" {
		t.Error("Summary.String() is empty")
	}
}

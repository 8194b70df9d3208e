package simtime

import (
	"sort"
	"sync"
	"testing"
	"time"
)

func TestSleepZeroAndNegative(t *testing.T) {
	start := time.Now()
	Sleep(0)
	Sleep(-time.Second)
	if time.Since(start) > 5*time.Millisecond {
		t.Error("non-positive Sleep slept")
	}
}

func TestSleepShortIsPrecise(t *testing.T) {
	// Sub-tick sleeps must not round up to the kernel tick (~1 ms). Judged
	// by the median of 20: one host preemption (700 µs seen on a loaded box)
	// moves a mean past the limit but says nothing about Sleep.
	for _, d := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond} {
		const n = 20
		took := make([]time.Duration, n)
		for i := range took {
			start := time.Now()
			Sleep(d)
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		if took[0] < d {
			t.Errorf("Sleep(%v) came back early after %v", d, took[0])
		}
		if median := took[n/2]; median > d+300*time.Microsecond {
			t.Errorf("Sleep(%v) median %v too imprecise", d, median)
		}
	}
}

func TestSleepLong(t *testing.T) {
	start := time.Now()
	Sleep(10 * time.Millisecond)
	el := time.Since(start)
	if el < 10*time.Millisecond || el > 14*time.Millisecond {
		t.Errorf("Sleep(10ms) took %v", el)
	}
}

func TestConcurrentSleepsOverlap(t *testing.T) {
	// N concurrent sleeps of d must take ~d wall time, not N*d — the
	// property the whole latency simulation depends on.
	const n = 16
	const d = 5 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Sleep(d)
		}()
	}
	wg.Wait()
	el := time.Since(start)
	if el > 3*d {
		t.Errorf("%d concurrent sleeps of %v took %v: not overlapping", n, d, el)
	}
}

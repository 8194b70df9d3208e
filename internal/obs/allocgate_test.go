//go:build !race

// The race detector instruments allocations, so this gate runs on plain
// builds only; `make allocs` runs it alongside (not inside) the race pass.

package obs

import (
	"testing"
	"time"
)

// TestHistogramObserveAllocFree gates the hot-path observation every span
// edge pays: no allocation, whatever the sample or how many came before.
func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	d := time.Microsecond
	allocs := testing.AllocsPerRun(10000, func() {
		h.Observe(d)
		d = d*3/2 + 7
		if d > time.Hour {
			d = time.Microsecond
		}
	})
	t.Logf("Observe: %.1f allocs/op", allocs)
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f objects per call, want 0", allocs)
	}
}

//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make check` runs this gate alongside (not inside) the race
// pass.

package experiments

import (
	"sort"
	"testing"
)

// chainWrite4KAllocBudget caps the allocations for one 4 KiB write through
// the full VM→active-relay→target chain. With the per-PDU and per-span
// objects gone from both iSCSI legs (see volume.TestLeg4KAllocBudget) and the
// write-back items recycled, what is left is the relay's journal entry: the
// tree measures 1 per write, and 3 in runs where the appliers fall behind
// admission (coalescing buffers, goroutine-executed backend commands). The
// budget is the most the tree measures plus one.
const chainWrite4KAllocBudget = 4

// TestChainWrite4KAllocBudget is the allocs/op regression gate: it measures
// whole-process allocations per chain write with testing.AllocsPerRun (which
// covers the relay and target goroutines too, not just the caller) and fails
// when the budget is exceeded.
func TestChainWrite4KAllocBudget(t *testing.T) {
	sess := fastPathChain(t)
	buf := make([]byte, 4096)
	// Warm every pool on the path (PDU staging, journal, write-back items)
	// so the measurement sees steady state, not first-touch growth.
	for i := 0; i < 64; i++ {
		if err := sess.Write(uint64((i%64)*8), buf, 512); err != nil {
			t.Fatal(err)
		}
	}
	// The median of several batches: a batch that lands while the appliers
	// fall behind admission pays for items and coalescing buffers the queue
	// has not needed before, which is growth, not the per-write cost.
	var i int
	batches := make([]float64, 7)
	for b := range batches {
		batches[b] = testing.AllocsPerRun(100, func() {
			if err := sess.Write(uint64((i%64)*8), buf, 512); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	sort.Float64s(batches)
	avg := batches[len(batches)/2]
	if avg > chainWrite4KAllocBudget {
		t.Errorf("chain 4K write allocates %.1f allocs/op, budget %d (zero-copy hot path regressed)", avg, chainWrite4KAllocBudget)
	}
	t.Logf("chain 4K write: %.1f allocs/op (budget %d; batches %v)", avg, chainWrite4KAllocBudget, batches)
}

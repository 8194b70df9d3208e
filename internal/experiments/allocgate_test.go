//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make check` runs this gate alongside (not inside) the race
// pass.

package experiments

import "testing"

// chainWrite4KAllocBudget caps the allocations for one 4 KiB write through
// the full VM→active-relay→target chain. With the per-PDU and per-span
// objects gone from both iSCSI legs (see volume.TestLeg4KAllocBudget) what is
// left is the relay's own: the journal entry, and the write-back item with
// its sequence list unless the write coalesces into its predecessor — 2 to 4
// per write depending on how the appliers keep up. The budget is the most
// the tree measures plus one.
const chainWrite4KAllocBudget = 5

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
	var i int
	avg := testing.AllocsPerRun(200, func() {
		if err := sess.Write(uint64((i%64)*8), buf, 512); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > chainWrite4KAllocBudget {
		t.Errorf("chain 4K write allocates %.1f allocs/op, budget %d (zero-copy hot path regressed)", avg, chainWrite4KAllocBudget)
	}
	t.Logf("chain 4K write: %.1f allocs/op (budget %d)", avg, chainWrite4KAllocBudget)
}

//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package volume

import "testing"

// leg4KAllocBudget caps the heap objects one 4 KiB command may cost over one
// unmodelled iSCSI leg, both ends and the pipe between them included. Every
// chain is a sum of such legs, so an object per PDU here is an object per
// hop of every tenant I/O. The tree measures 0 for both directions (the
// histogram's amortised growth aside); the budget leaves room for the
// per-command goroutine a busy connection falls back to, not for a per-PDU
// object coming back.
const leg4KAllocBudget = 4

// TestLeg4KAllocBudget measures whole-process allocations per command with
// testing.AllocsPerRun, which counts the target's goroutines too, on warmed
// pools.
func TestLeg4KAllocBudget(t *testing.T) {
	dev := legDevice(t)
	for _, c := range []struct {
		name  string
		write bool
	}{{"WriteAt", true}, {"ReadAt", false}} {
		op := legOp(t, dev, c.write)
		for i := 0; i < 256; i++ {
			op()
		}
		avg := testing.AllocsPerRun(500, op)
		if avg > leg4KAllocBudget {
			t.Errorf("4 KiB %s over one leg allocates %.1f objects, budget %d", c.name, avg, leg4KAllocBudget)
		}
		t.Logf("leg 4K %s: %.1f allocs/op (budget %d)", c.name, avg, leg4KAllocBudget)
	}
}

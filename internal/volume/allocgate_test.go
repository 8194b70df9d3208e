//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package volume

import "testing"

// legAllocBudget caps the heap objects one command may cost over one
// unmodelled iSCSI leg, both ends and the pipe between them included. Every
// chain is a sum of such legs, so an object per PDU here is an object per
// hop of every tenant I/O. The tree measures 0 for both directions at 4 KiB
// and 64 KiB (the histogram's amortised growth aside); the budget leaves room
// for the per-command goroutine a busy connection falls back to, not for a
// per-PDU object coming back.
const legAllocBudget = 4

// TestLeg4KAllocBudget measures whole-process allocations per command with
// testing.AllocsPerRun, which counts the target's goroutines too, on warmed
// pools.
func TestLeg4KAllocBudget(t *testing.T) { testLegAllocBudget(t, 4096) }

// TestLeg64KAllocBudget is the same gate at 64 KiB, where the whole PDU
// travels as one frame the receiving reader takes over.
func TestLeg64KAllocBudget(t *testing.T) { testLegAllocBudget(t, 64*1024) }

func testLegAllocBudget(t *testing.T, size int) {
	dev := legDevice(t)
	for _, c := range []struct {
		name  string
		write bool
	}{{"WriteAt", true}, {"ReadAt", false}} {
		op := legOp(t, dev, size, c.write)
		for i := 0; i < 256; i++ {
			op()
		}
		avg := testing.AllocsPerRun(500, op)
		if avg > legAllocBudget {
			t.Errorf("%d KiB %s over one leg allocates %.1f objects, budget %d", size>>10, c.name, avg, legAllocBudget)
		}
		t.Logf("leg %dK %s: %.1f allocs/op (budget %d)", size>>10, c.name, avg, legAllocBudget)
	}
}

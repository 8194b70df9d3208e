//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package extfs

import (
	"fmt"
	"testing"
)

// TestLookupAllocsOnlyBlockReads gates the in-place name compare: a lookup
// in a 200-entry directory allocates its block list and one buffer per
// block read, and nothing per entry.
func TestLookupAllocsOnlyBlockReads(t *testing.T) {
	fs := newFS(t)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := fs.Create(fmt.Sprintf("/d/file-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, dir, err := fs.resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.dirBlocks(dir)
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(1 + len(blocks))
	for _, name := range []string{"file-199", "missing"} {
		allocs := testing.AllocsPerRun(200, func() { _, _ = fs.lookupInDir(dir, name) })
		t.Logf("lookup %q in 200 entries (%d blocks): %.1f allocs", name, len(blocks), allocs)
		if allocs > budget {
			t.Errorf("lookup %q allocates %.1f objects, want <= %.0f (block list + one per block)", name, allocs, budget)
		}
	}
}

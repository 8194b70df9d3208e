//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package scrub

import "testing"

// TestCleanPassAllocFree: each replica reads into its own buffer, reused
// from slot to slot and pass to pass, so a pass over converged replicas
// allocates nothing once the first pass has made the buffers.
func TestCleanPassAllocFree(t *testing.T) {
	sc := scrubber(replicaSet(t, 3))
	if _, err := sc.RunPass(); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(5, func() {
		if st, err := sc.RunPass(); err != nil || st.Mismatches != 0 {
			t.Fatalf("pass: %+v, %v", st, err)
		}
	})
	t.Logf("clean pass over %d slots: %.1f allocs", testSlots, n)
	if n != 0 {
		t.Fatalf("clean pass over %d slots: %.1f allocs, want 0", testSlots, n)
	}
}

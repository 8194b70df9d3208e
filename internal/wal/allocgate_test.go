//go:build !race

// The race detector instruments allocations, so this gate runs on plain
// builds only; `make allocs` runs it alongside (not inside) the race pass.

package wal

import "testing"

// TestAppendCommitAllocFree gates the journal's record path: a 4 KiB
// Append and its Commit, synced inline at window 0, allocate nothing. Each
// record is framed in one pooled buffer.
func TestAppendCommitAllocFree(t *testing.T) {
	l, _ := mustCreate(t, Options{SegmentBytes: 64 << 20})
	defer l.Close()
	data := make([]byte, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		seq, err := l.Append(0, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Append+Commit 4 KiB: %.1f allocs/op", allocs)
	if allocs != 0 {
		t.Errorf("Append+Commit allocates %.1f objects, want 0", allocs)
	}
}

// rotationAllocBudget caps the allocations of one segment rotation in steady
// state, the compaction of the segment it leaves behind included. It is the
// count the log measured when every rotation created a new file and every
// compaction deleted one; recycling the spare segment must not exceed it.
const rotationAllocBudget = 18

// TestRotationAllocBudget gates the segment lifecycle: 4 KiB appends, each
// committed at once, across 8 rotations of a 64 KiB segment. Appends and
// commits allocate nothing (TestAppendCommitAllocFree), so what the loop
// allocates is what rotating and compacting cost.
func TestRotationAllocBudget(t *testing.T) {
	l, _ := mustCreate(t, Options{SegmentBytes: 64 << 10})
	defer l.Close()
	data := make([]byte, 4096)
	allocs := testing.AllocsPerRun(8, func() {
		for seg := l.curSeg; l.curSeg == seg; {
			seq, err := l.Append(0, data)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(seq); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("segment rotation: %.1f allocs/rotation (budget %d)", allocs, rotationAllocBudget)
	if allocs > rotationAllocBudget {
		t.Errorf("a segment rotation allocates %.1f objects, budget %d", allocs, rotationAllocBudget)
	}
}

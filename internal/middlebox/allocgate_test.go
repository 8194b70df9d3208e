//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package middlebox

import (
	"testing"

	"repro/internal/blockdev"
)

// TestWriteBackAdmitApplyAllocBudget gates the write-back engine's own cost
// per write: admitting a non-overlapping write and applying it allocates
// nothing beyond the in-memory journal's entry record — the item comes off
// the free list and the ready queue reuses its array.
func TestWriteBackAdmitApplyAllocBudget(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWriteBack(disk, NewJournal(1<<20))
	defer wb.Close()
	buf := make([]byte, 4096)
	var i uint64
	op := func() {
		// Every other 4 KiB slot: never overlapping, never adjacent to the
		// last write, so nothing coalesces.
		if err := wb.WriteAt(buf, (i%256)*16); err != nil {
			t.Fatal(err)
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for n := 0; n < 512; n++ { // touch every extent, fill the free list
		op()
	}
	allocs := testing.AllocsPerRun(1000, op)
	t.Logf("write-back admit+apply: %.1f allocs/write", allocs)
	if allocs > 1 {
		t.Errorf("write-back admit+apply allocates %.1f objects, want <= 1 (the journal entry)", allocs)
	}
}

// TestJournalAppendCompleteAllocBudget gates one 4 KiB journal record in both
// modes: Append + Complete allocates the entry and nothing else — the data
// copy is pooled, and the WAL's record buffer is pooled too.
func TestJournalAppendCompleteAllocBudget(t *testing.T) {
	buf := make([]byte, 4096)
	forEachMode(t, 0, func(t *testing.T, j *Journal) {
		op := func() {
			seq, _, err := j.Append(0, buf)
			if err != nil {
				t.Fatal(err)
			}
			j.Complete(seq, nil)
		}
		op() // warm the pools
		allocs := testing.AllocsPerRun(1000, op)
		t.Logf("journal append+complete: %.1f allocs/record", allocs)
		if allocs > 1 {
			t.Errorf("journal append+complete allocates %.1f objects, want <= 1 (the entry)", allocs)
		}
	})
}

//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package middlebox

import (
	"sort"
	"testing"

	"repro/internal/blockdev"
)

// chainWrite4KAllocBudget caps the allocations for one 4 KiB write through
// the full VM→active-relay→target chain. With the per-PDU and per-span
// objects gone from both iSCSI legs (see volume.TestLeg4KAllocBudget) and the
// write-back items recycled, what is left is the relay's journal entry: the
// tree measures 1 per write, and 3 in runs where the appliers fall behind
// admission (coalescing buffers, goroutine-executed backend commands). The
// budget is the most the tree measures plus one.
const chainWrite4KAllocBudget = 4

// TestChainWrite4KAllocBudget is the allocs/op regression gate for the whole
// chain: it measures process-wide allocations per chain write with
// testing.AllocsPerRun (which covers the relay and target goroutines too, not
// just the caller) on chainTestbed, whose inline-executing servers the budget
// assumes.
func TestChainWrite4KAllocBudget(t *testing.T) {
	sess := chainTestbed(t)
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
	median := batches[len(batches)/2]
	t.Logf("chain 4K write: %.1f allocs/op (budget %d; batches %v)", median, chainWrite4KAllocBudget, batches)
	if median > chainWrite4KAllocBudget {
		t.Errorf("chain 4K write allocates %.1f allocs/op, budget %d (zero-copy hot path regressed)", median, chainWrite4KAllocBudget)
	}
}

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

//go:build !race

// The race detector instruments allocations, so the budgets only hold on
// plain builds; `make allocs` runs these gates alongside (not inside) the
// race pass.

package semantic

import (
	"testing"
)

// TestDataAccessAllocFree gates the common case of the monitor's per-I/O
// path: a read or write of a known file's data block appends its event to
// the retained log and allocates nothing (the log's amortised growth aside).
func TestDataAccessAllocFree(t *testing.T) {
	fs, r, _ := goldenSetup(t)
	if err := goldenScript(fs); err != nil {
		t.Fatal(err)
	}
	var blk uint64
	for b, ino := range r.blockOwner {
		if m := r.inodes[ino]; m != nil && m.path == "/b/d2/c1" {
			blk = b
		}
	}
	if blk == 0 {
		t.Fatal("no data block attributed to /b/d2/c1")
	}
	lba := blk * uint64(r.view.SectorsPerBlock)
	data := make([]byte, r.view.BlockSize)
	for _, c := range []struct {
		name  string
		write bool
		data  []byte
	}{{"read", false, nil}, {"write", true, data}} {
		allocs := testing.AllocsPerRun(1000, func() { r.OnAccess(c.write, lba, c.data, len(data)) })
		t.Logf("data-block %s: %.1f allocs/access", c.name, allocs)
		if allocs != 0 {
			t.Errorf("data-block %s allocates %.1f objects per access, want 0", c.name, allocs)
		}
	}
}

// TestDirEntryChangeAllocBudget gates the in-place Update diff: writing a
// directory block that differs from its shadow by one entry allocates at
// most that entry's path (its name is a suffix of it). The block flips
// between its contents without and with the entry, so every pair of writes
// is one removal and one addition.
func TestDirEntryChangeAllocBudget(t *testing.T) {
	fs, r, tap := goldenSetup(t)
	if err := goldenScript(fs); err != nil {
		t.Fatal(err)
	}
	var dir *inoMeta
	for _, m := range r.inodes {
		if m.path == "/big" {
			dir = m
		}
	}
	var blk uint64
	for b := range dir.blocks {
		if blk == 0 || b < blk {
			blk = b
		}
	}
	lba := blk * uint64(r.view.SectorsPerBlock)
	before := make([]byte, r.view.BlockSize)
	if err := tap.dev.ReadAt(before, lba); err != nil {
		t.Fatal(err)
	}
	// Longer than the 32 bytes a string conversion may keep on the stack.
	if err := fs.Create("/big/an-entry-whose-name-is-longer-than-thirty-two-bytes"); err != nil {
		t.Fatal(err)
	}
	after := make([]byte, r.view.BlockSize)
	if err := tap.dev.ReadAt(after, lba); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		r.OnAccess(true, lba, before, len(before))
		r.OnAccess(true, lba, after, len(after))
	})
	t.Logf("one-entry directory change: %.1f allocs per removal+addition", allocs)
	if allocs > 1 {
		t.Errorf("a one-entry directory change allocates %.1f objects, want <= 1 (the new path)", allocs)
	}
}

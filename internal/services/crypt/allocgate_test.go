//go:build !race

// Under -race sync.Pool drops buffers at random, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package crypt

import (
	"testing"

	"repro/internal/blockdev"
)

// TestDevice64KAllocBudget gates the per-request (not per-sector) cost: on a
// warmed pool a 64 KiB command allocates the CTR stream, nothing else.
func TestDevice64KAllocBudget(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(disk, testKey(), CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	cases := map[string]func(){
		"WriteAt": func() { _ = dev.WriteAt(buf, 128) },
		"ReadAt":  func() { _ = dev.ReadAt(buf, 128) },
	}
	for name, fn := range cases {
		fn() // warm the pool and the extents
		allocs := testing.AllocsPerRun(100, fn)
		t.Logf("64 KiB %s: %.1f allocs/op", name, allocs)
		if allocs > 2 {
			t.Errorf("64 KiB %s allocates %.1f allocs/op, want <= 2", name, allocs)
		}
	}
}

// TestTransformAllocBudget gates one Transform at 1: the stream object
// cipher.NewCTR returns is the floor of the public API, and the counter
// block must not escape beside it.
func TestTransformAllocBudget(t *testing.T) {
	c, err := NewCipher(testKey())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var sector uint64
	allocs := testing.AllocsPerRun(1000, func() {
		c.Transform(buf, sector, 512)
		sector += 8
	})
	t.Logf("4 KiB Transform: %.1f allocs/op", allocs)
	if allocs > 1 {
		t.Errorf("Transform allocates %.1f allocs/op, want <= 1", allocs)
	}
}

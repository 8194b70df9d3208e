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
// warmed pool a 64 KiB command allocates nothing on the kernel path, and the
// CTR stream on crypto/cipher's path.
func TestDevice64KAllocBudget(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		budget := 0.0
		if !useKernel {
			budget = 2
		}
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
			if allocs > budget {
				t.Errorf("64 KiB %s allocates %.1f allocs/op, want <= %.0f", name, allocs, budget)
			}
		}
	})
}

// TestTransformAllocBudget gates one Transform: the kernel keeps its partial
// block's keystream on the stack and allocates nothing; on crypto/cipher's
// path the stream object cipher.NewCTR returns is the floor of the public
// API, and the counter block must not escape beside it.
func TestTransformAllocBudget(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		budget := 0.0
		if !useKernel {
			budget = 1
		}
		c, err := NewCipher(testKey())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096+5) // a partial final block too
		var sector uint64
		allocs := testing.AllocsPerRun(1000, func() {
			c.Transform(buf, sector, 512)
			sector += 8
		})
		t.Logf("4 KiB Transform: %.1f allocs/op", allocs)
		if allocs > budget {
			t.Errorf("Transform allocates %.1f allocs/op, want <= %.0f", allocs, budget)
		}
	})
}

//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package replicate

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cas"
)

// boxWriteAllocBudget is what one 4 KiB write through a healthy box costs
// in allocations: the job, its chunk list, its done channel and its own
// copy of the bytes.
const boxWriteAllocBudget = 4

// TestBoxWriteAllocBudget pins the allocations of a quorum write through a
// healthy three-backend box over block-backed stores on MemDisk, whose puts
// allocate nothing, so the count is the box's own.
func TestBoxWriteAllocBudget(t *testing.T) {
	var stores []NamedStore
	for i := 0; i < 3; i++ {
		n, err := cas.BlockBackendBytes(testBS, testChunk, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := blockdev.NewMemDisk(testBS, n/testBS)
		if err != nil {
			t.Fatal(err)
		}
		be, err := cas.OpenBlockBackend(disk, testChunk, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cas.Open(be, testChunk, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, NamedStore{Name: fmt.Sprintf("block%d", i), Store: s})
	}
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()
	p := make([]byte, testChunk)
	var gen uint64
	write := func() {
		gen++
		binary.LittleEndian.PutUint64(p, gen) // unique content: every put stores a chunk
		if err := b.WriteAt(p, (gen%testSlots)*testChunk/testBS); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*testSlots; i++ { // every slot written and every store's extents allocated
		write()
	}
	waitDrained(t, b)
	n := testing.AllocsPerRun(200, write)
	t.Logf("4 KiB box write: %.2f allocs", n)
	if n > boxWriteAllocBudget {
		t.Fatalf("4 KiB box write: %.2f allocs, budget %d", n, boxWriteAllocBudget)
	}
}

//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package cas

import (
	"testing"
)

// TestReadPathAllocFree: a read lands in the caller's buffer, so a Read or
// a VerifySlot of a block-backed slot allocates nothing, and LogicalHash
// allocates the same few objects whatever the slot count.
func TestReadPathAllocFree(t *testing.T) {
	const slots = 16
	be, err := OpenBlockBackend(newBlockDisk(t, slots), testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < slots; slot++ {
		if _, err := s.Write(slot, chunkOf(int64(slot))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, testChunk)
	var slot uint64
	read := testing.AllocsPerRun(100, func() {
		if err := s.Read(slot%slots, buf); err != nil {
			t.Fatal(err)
		}
		slot++
	})
	verify := testing.AllocsPerRun(100, func() {
		if err := s.VerifySlot(slot % slots); err != nil {
			t.Fatal(err)
		}
		slot++
	})
	hash := testing.AllocsPerRun(10, func() {
		if _, err := s.LogicalHash(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Read %.1f, VerifySlot %.1f allocs/op; LogicalHash of %d slots %.1f allocs", read, verify, slots, hash)
	if read != 0 || verify != 0 || hash > 2 {
		t.Fatalf("Read %.1f, VerifySlot %.1f allocs/op, LogicalHash %.1f allocs; want 0, 0 and at most 2 (digest and buffer)", read, verify, hash)
	}
}

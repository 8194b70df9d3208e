package cas

import (
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/xerr"
)

// chunkFill renders a deterministic unique chunk.
func chunkFill(tag byte, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

// TestRefcountAtExactCapacity pins the reclaim path the typed ErrStoreFull
// handling relies on: a block backend filled to its last physical chunk
// slot refuses new content typed Exhausted, a dedup overwrite releases the
// displaced chunk's slot, and that freed slot is immediately reusable.
func TestRefcountAtExactCapacity(t *testing.T) {
	const (
		bs        = 512
		chunkSize = 2048
		slots     = 8
	)
	devBytes, err := BlockBackendBytes(bs, chunkSize, slots)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blockdev.NewMemDisk(bs, devBytes/bs)
	if err != nil {
		t.Fatal(err)
	}
	be, err := OpenBlockBackend(disk, chunkSize, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, chunkSize, slots)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fill every logical slot with unique content, then consume the
	// backend's orphan-slack physical slots with direct puts so the chunk
	// area sits at its exact last slot.
	for i := uint64(0); i < slots; i++ {
		if _, err := s.Write(i, chunkFill(byte(i), chunkSize)); err != nil {
			t.Fatalf("fill slot %d: %v", i, err)
		}
	}
	for i := uint64(slots); i < physSlotsFor(slots); i++ {
		if err := be.PutChunk(NoSlot, Sum(chunkFill(byte(i), chunkSize)), chunkFill(byte(i), chunkSize)); err != nil {
			t.Fatalf("fill slack slot %d: %v", i, err)
		}
	}

	// New unique content can't be admitted: the put happens before the old
	// chunk's release (crash-safe ordering), so an exactly-full backend
	// surfaces typed exhaustion.
	_, err = s.Write(0, chunkFill(0xAA, chunkSize))
	if !errors.Is(err, ErrStoreFull) {
		t.Fatalf("write to full backend: got %v, want ErrStoreFull", err)
	}
	if xerr.Classify(err) != xerr.Exhausted {
		t.Fatalf("ErrStoreFull classed %v, want Exhausted", xerr.Classify(err))
	}

	// Overwrite slot 0 with slot 1's content: a dedup hit needing no new
	// physical slot. The displaced chunk's refcount drops to zero and its
	// slot frees.
	oldID := s.IDAt(0)
	dup, err := s.Write(0, chunkFill(1, chunkSize))
	if err != nil {
		t.Fatalf("dedup overwrite at capacity: %v", err)
	}
	if !dup {
		t.Fatal("overwrite with existing content was not a dedup hit")
	}
	if refs(s, oldID) != 0 {
		t.Fatalf("displaced chunk still has %d refs", refs(s, oldID))
	}
	if got := refs(s, s.IDAt(0)); got != 2 {
		t.Fatalf("shared chunk refcount = %d, want 2", got)
	}
	if hasChunk(be, oldID) {
		t.Fatal("zero-ref chunk not deleted from the backend")
	}

	// The freed physical slot is reusable for new unique content.
	fresh := chunkFill(0xBB, chunkSize)
	if _, err := s.Write(0, fresh); err != nil {
		t.Fatalf("write to freed slot: %v", err)
	}
	buf := make([]byte, chunkSize)
	if err := s.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(fresh) {
		t.Fatal("freed-slot content mismatch after reuse")
	}
}

package cas

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extfs"
	"repro/internal/objstore"
)

const testChunk = 2048

func chunkOf(seed int64) []byte {
	data := make([]byte, testChunk)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func openMem(t *testing.T, slots uint64) *Store {
	t.Helper()
	s, err := Open(NewMemBackend(slots), testChunk, slots)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestWriteReadDedup(t *testing.T) {
	s := openMem(t, 8)
	a, b := chunkOf(1), chunkOf(2)
	if dup, err := s.Write(0, a); err != nil || dup {
		t.Fatalf("first write: dup=%v err=%v", dup, err)
	}
	if dup, err := s.Write(1, a); err != nil || !dup {
		t.Fatalf("duplicate content write: dup=%v err=%v", dup, err)
	}
	if dup, err := s.Write(2, b); err != nil || dup {
		t.Fatalf("unique write: dup=%v err=%v", dup, err)
	}
	got := make([]byte, testChunk)
	for slot, want := range map[uint64][]byte{0: a, 1: a, 2: b} {
		if err := s.Read(slot, got); err != nil {
			t.Fatalf("Read(%d): %v", slot, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d content mismatch", slot)
		}
	}
	// Unmapped slot reads zeros.
	if err := s.Read(7, got); err != nil || !equalZero(got) {
		t.Fatalf("unmapped read: err=%v zero=%v", err, equalZero(got))
	}
	st := s.Stats()
	if st.Writes != 3 || st.DedupHits != 1 || st.LiveChunks != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesLogical != 3*testChunk || st.BytesStored != 2*testChunk {
		t.Fatalf("byte accounting = %+v", st)
	}
	if r := st.DedupRatio(); r != 1.5 {
		t.Fatalf("dedup ratio = %v, want 1.5", r)
	}
}

func TestRefcountRelease(t *testing.T) {
	s := openMem(t, 4)
	a, b := chunkOf(10), chunkOf(11)
	for slot := uint64(0); slot < 3; slot++ {
		if _, err := s.Write(slot, a); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Refs(Sum(a)); got != 3 {
		t.Fatalf("refs = %d, want 3", got)
	}
	// Overwrite two of the three references; chunk a must survive.
	for slot := uint64(0); slot < 2; slot++ {
		if _, err := s.Write(slot, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Refs(Sum(a)); got != 1 {
		t.Fatalf("refs after overwrite = %d, want 1", got)
	}
	// Last reference gone → chunk reclaimed from the backend.
	if _, err := s.Write(2, b); err != nil {
		t.Fatal(err)
	}
	if s.b.HasChunk(Sum(a)) {
		t.Fatal("released chunk still stored")
	}
	// Rewriting identical content at the same slot is a pure dedup hit.
	dup, err := s.Write(2, b)
	if err != nil || !dup {
		t.Fatalf("same-content rewrite: dup=%v err=%v", dup, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := openMem(t, 2)
	if _, err := s.Write(0, chunkOf(42)); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifySlot(0); err != nil {
		t.Fatalf("verify clean: %v", err)
	}
	if err := s.Corrupt(0); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	if err := s.VerifySlot(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verify corrupted = %v, want ErrCorrupt", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	const slots, writers = 64, 8
	s := openMem(t, slots)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				slot := uint64((w*200 + i) % slots)
				// A small seed space forces heavy cross-writer dedup.
				if _, err := s.Write(slot, chunkOf(int64(i%7))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				buf := make([]byte, testChunk)
				if err := s.Read(slot, buf); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.LiveChunks > 7 {
		t.Fatalf("live chunks = %d, want ≤ 7", st.LiveChunks)
	}
}

func newBlockDisk(t *testing.T, slots uint64) *blockdev.MemDisk {
	t.Helper()
	size, err := BlockBackendBytes(512, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blockdev.NewMemDisk(512, size/512)
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

func TestBlockBackendPersistence(t *testing.T) {
	const slots = 16
	disk := newBlockDisk(t, slots)
	b, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatalf("OpenBlockBackend: %v", err)
	}
	s, err := Open(b, testChunk, slots)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for slot := uint64(0); slot < slots; slot++ {
		if _, err := s.Write(slot, chunkOf(int64(slot%5))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	// Reopen over the same device without closing: simulates the writing
	// process dying and the replacement scanning the layout from scratch.
	b2, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatalf("reopen backend: %v", err)
	}
	s2, err := Open(b2, testChunk, slots)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	got, err := s2.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("logical content diverged across reopen")
	}
	if st := s2.Stats(); st.LiveChunks != 5 {
		t.Fatalf("live chunks after rescan = %d, want 5", st.LiveChunks)
	}
}

func TestBlockBackendOrphanGC(t *testing.T) {
	const slots = 8
	disk := newBlockDisk(t, slots)
	b, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	// A chunk put with no mapping models a crash between PutChunk and
	// SetMapping; Open must reclaim it.
	orphan := chunkOf(99)
	if err := b.PutChunk(Sum(orphan), orphan); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(b, testChunk, slots); err != nil {
		t.Fatal(err)
	}
	if b.HasChunk(Sum(orphan)) {
		t.Fatal("orphan chunk survived open-time GC")
	}
}

func TestBlockBackendGeometryMismatch(t *testing.T) {
	const slots = 8
	disk := newBlockDisk(t, slots)
	if _, err := OpenBlockBackend(disk, testChunk, slots); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBlockBackend(disk, testChunk/2, slots); !errors.Is(err, ErrGeometry) {
		t.Fatalf("mismatched reopen = %v, want ErrGeometry", err)
	}
}

func TestBlockBackendFull(t *testing.T) {
	const slots = 4
	disk := newBlockDisk(t, slots)
	b, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	var i int64
	for {
		if err := b.PutChunk(Sum(chunkOf(i)), chunkOf(i)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("fill: %v", err)
			}
			break
		}
		i++
		if i > int64(physSlotsFor(slots))+1 {
			t.Fatal("backend never reported ErrFull")
		}
	}
}

func newObjStore(t *testing.T) *objstore.Store {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 65536)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mkfs(disk, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := objstore.New(fs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestObjBackendRoundtrip(t *testing.T) {
	const slots = 8
	os := newObjStore(t)
	b, err := NewObjBackend(os, "cas", slots)
	if err != nil {
		t.Fatalf("NewObjBackend: %v", err)
	}
	s, err := Open(b, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < slots; slot++ {
		if _, err := s.Write(slot, chunkOf(int64(slot%3))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	// Reopen from the same bucket: the slot table and chunks are objects.
	b2, err := NewObjBackend(os, "cas", slots)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b2, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("obj-backed content diverged across reopen")
	}
	// Silent corruption: the rewritten object is self-consistent for the
	// object store but fails the CAS content check.
	if err := s2.Corrupt(0); err != nil {
		t.Fatal(err)
	}
	if err := s2.VerifySlot(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verify corrupted = %v, want ErrCorrupt", err)
	}
}

func TestBackendContract(t *testing.T) {
	const slots = 4
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) Backend
	}{
		{"mem", func(t *testing.T) Backend { return NewMemBackend(slots) }},
		{"block", func(t *testing.T) Backend {
			b, err := OpenBlockBackend(newBlockDisk(t, slots), testChunk, slots)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"obj", func(t *testing.T) Backend {
			b, err := NewObjBackend(newObjStore(t), "contract", slots)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mk(t)
			data := chunkOf(7)
			id := Sum(data)
			if _, err := b.GetChunk(id); !errors.Is(err, ErrNoChunk) {
				t.Fatalf("missing get = %v, want ErrNoChunk", err)
			}
			if err := b.PutChunk(id, data); err != nil {
				t.Fatal(err)
			}
			if err := b.PutChunk(id, data); err != nil {
				t.Fatalf("idempotent re-put: %v", err)
			}
			got, err := b.GetChunk(id)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get = %v (match=%v)", err, bytes.Equal(got, data))
			}
			if !b.HasChunk(id) || len(b.Chunks()) != 1 {
				t.Fatal("chunk not indexed")
			}
			if err := b.SetMapping(1, id); err != nil {
				t.Fatal(err)
			}
			table, err := b.Mappings()
			if err != nil || len(table) != slots || table[1] != id || !table[0].IsZero() {
				t.Fatalf("mappings = %v, err %v", table, err)
			}
			if err := b.SetMapping(1, ID{}); err != nil {
				t.Fatalf("clear mapping: %v", err)
			}
			if err := b.CorruptChunk(id); err != nil {
				t.Fatal(err)
			}
			got, err = b.GetChunk(id)
			if err != nil {
				t.Fatal(err)
			}
			if Sum(got) == id {
				t.Fatal("corruption did not change content")
			}
			if err := b.DeleteChunk(id); err != nil {
				t.Fatal(err)
			}
			if b.HasChunk(id) {
				t.Fatal("chunk survived delete")
			}
			if err := b.DeleteChunk(id); err != nil {
				t.Fatalf("idempotent delete: %v", err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBlockBackendBytesSizing(t *testing.T) {
	for _, slots := range []uint64{1, 16, 1024} {
		size, err := BlockBackendBytes(512, testChunk, slots)
		if err != nil {
			t.Fatal(err)
		}
		if size%512 != 0 {
			t.Fatalf("size %d not block-aligned", size)
		}
		disk, err := blockdev.NewMemDisk(512, size/512)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBlockBackend(disk, testChunk, slots); err != nil {
			t.Fatalf("slots=%d: %v", slots, err)
		}
	}
	if _, err := BlockBackendBytes(512, 100, 4); err == nil {
		t.Fatal("unaligned chunk size accepted")
	}
	// 64-byte map entries must not straddle device blocks.
	odd, err := blockdev.NewMemDisk(96, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBlockBackend(odd, 192, 4); err == nil {
		t.Fatal("block size that splits a map entry accepted")
	}
}

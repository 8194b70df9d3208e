package cas

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/blockdev"
)

const testChunk = 2048

// TestMain makes format epochs a counter, so every run formats the same
// images and no two formats share an epoch.
func TestMain(m *testing.M) {
	var epoch uint64
	newEpoch = func() uint64 {
		epoch++
		return epoch
	}
	os.Exit(m.Run())
}

// pinEpoch makes every format in the test draw epoch e.
func pinEpoch(t *testing.T, e uint64) {
	prev := newEpoch
	newEpoch = func() uint64 { return e }
	t.Cleanup(func() { newEpoch = prev })
}

func chunkOf(seed int64) []byte { return chunkN(seed, testChunk) }

// chunkN is n seeded random bytes.
func chunkN(seed int64, n int) []byte {
	data := make([]byte, n)
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
	if got := refs(s, Sum(a)); got != 3 {
		t.Fatalf("refs = %d, want 3", got)
	}
	// Overwrite two of the three references; chunk a must survive.
	for slot := uint64(0); slot < 2; slot++ {
		if _, err := s.Write(slot, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := refs(s, Sum(a)); got != 1 {
		t.Fatalf("refs after overwrite = %d, want 1", got)
	}
	// Last reference gone → chunk reclaimed from the backend.
	if _, err := s.Write(2, b); err != nil {
		t.Fatal(err)
	}
	if hasChunk(s.b, Sum(a)) {
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
	if err := s.Corrupt(2); !errors.Is(err, ErrSlotRange) {
		t.Fatalf("corrupt beyond the table = %v, want ErrSlotRange", err)
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

// TestConcurrentBlockStore drives one block-backed store from several
// goroutines at once, each on its own slots and content: unique writes,
// repairs, reads and verifies share the backend's generation counter,
// mappings and free list, and a reopen must give what the store holds.
func TestConcurrentBlockStore(t *testing.T) {
	const slots, workers = 32, 4
	disk := newBlockDisk(t, slots)
	be, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, testChunk)
			for i := 0; i < 50; i++ {
				slot := uint64(w + workers*(i%(slots/workers)))
				data := chunkOf(int64(w<<16 | i))
				var err error
				if i%5 == 4 {
					err = s.Repair(slot, data)
				} else {
					_, err = s.Write(slot, data)
				}
				if err == nil {
					err = s.Read(slot, buf)
				}
				if err == nil {
					err = s.VerifySlot(slot)
				}
				if err != nil {
					t.Errorf("worker %d step %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	assertReopens(t, disk, s)
}

func newBlockDisk(t testing.TB, slots uint64) *blockdev.MemDisk {
	t.Helper()
	return newDisk(t, 512, testChunk, slots)
}

// newDisk returns a zeroed memory disk sized for a block backend.
func newDisk(t testing.TB, bs, chunk int, slots uint64) *blockdev.MemDisk {
	t.Helper()
	size, err := BlockBackendBytes(bs, chunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blockdev.NewMemDisk(bs, size/uint64(bs))
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
	if err := b.PutChunk(NoSlot, Sum(orphan), orphan); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(b, testChunk, slots); err != nil {
		t.Fatal(err)
	}
	if hasChunk(b, Sum(orphan)) {
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
		if err := b.PutChunk(NoSlot, Sum(chunkOf(i)), chunkOf(i)); err != nil {
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

// TestBackendContract runs both backends through the same calls: a put
// that carries its mapping, a plain put, a re-put, a remap, a clear, reads
// into the caller's buffer, corruption, deletes, and the slot range, which
// both must refuse with ErrSlotRange and not with an exhaustion error.
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mk(t)
			data, other := chunkOf(7), chunkOf(8)
			id, otherID := Sum(data), Sum(other)
			got := make([]byte, testChunk)
			if err := b.GetChunk(id, got); !errors.Is(err, ErrNoChunk) {
				t.Fatalf("missing get = %v, want ErrNoChunk", err)
			}
			table := func(want ...ID) {
				t.Helper()
				have, err := b.Mappings()
				if err != nil || len(have) != slots {
					t.Fatalf("mappings = %v, err %v", have, err)
				}
				for i := range have {
					if have[i] != want[i] {
						t.Fatalf("slot %d maps %s, want %s", i, have[i], want[i])
					}
				}
			}
			if err := b.PutChunk(2, id, data); err != nil {
				t.Fatal(err)
			}
			table(ID{}, ID{}, id, ID{})
			if err := b.PutChunk(NoSlot, otherID, other); err != nil {
				t.Fatal(err)
			}
			table(ID{}, ID{}, id, ID{})
			if err := b.PutChunk(NoSlot, id, data); err != nil {
				t.Fatalf("re-put: %v", err)
			}
			table(ID{}, ID{}, id, ID{})
			if err := b.PutChunk(3, id, data); err != nil {
				t.Fatalf("re-put with a mapping: %v", err)
			}
			table(ID{}, ID{}, id, id)
			if err := b.SetMapping(3, ID{}); err != nil {
				t.Fatal(err)
			}
			if err := b.GetChunk(id, got); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get = %v (match=%v)", err, bytes.Equal(got, data))
			}
			if !hasChunk(b, id) || !hasChunk(b, otherID) || len(b.Chunks()) != 2 {
				t.Fatal("chunks not indexed")
			}
			if err := b.SetMapping(1, id); err != nil {
				t.Fatal(err)
			}
			if err := b.SetMapping(2, otherID); err != nil {
				t.Fatal(err)
			}
			table(ID{}, id, otherID, ID{})
			if err := b.SetMapping(1, ID{}); err != nil {
				t.Fatalf("clear mapping: %v", err)
			}
			table(ID{}, ID{}, otherID, ID{})
			for _, err := range []error{
				b.PutChunk(slots, Sum(chunkOf(9)), chunkOf(9)),
				b.SetMapping(slots, id),
			} {
				if !errors.Is(err, ErrSlotRange) || errors.Is(err, ErrFull) {
					t.Fatalf("out-of-range slot: %v, want ErrSlotRange", err)
				}
			}
			if hasChunk(b, Sum(chunkOf(9))) {
				t.Fatal("refused put stored its chunk")
			}
			if err := b.CorruptChunk(id); err != nil {
				t.Fatal(err)
			}
			if err := b.GetChunk(id, got); err != nil {
				t.Fatal(err)
			}
			if Sum(got) == id {
				t.Fatal("corruption did not change content")
			}
			if err := b.DeleteChunk(id); err != nil {
				t.Fatal(err)
			}
			if hasChunk(b, id) {
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

// hasChunk reports whether b stores id.
func hasChunk(b Backend, id ID) bool {
	for _, c := range b.Chunks() {
		if c == id {
			return true
		}
	}
	return false
}

// refs is a chunk's live reference count in s.
func refs(s *Store, id ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.refs[id])
}

// equalZero reports whether b is all zeros.
func equalZero(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }

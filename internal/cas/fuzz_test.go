package cas

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
)

// The fuzz geometry: 128-byte blocks and chunks and 4 logical slots, so 20
// chunk slots and 43 blocks (5.5 KiB) a device.
const (
	fuzzBS    = 128
	fuzzSlots = 4
	fuzzEpoch = 0x5eed
)

// fuzzDisk is a device in the fuzz geometry with a valid superblock of
// epoch fuzzEpoch at lba 0 and body, cut or zero-padded to size, after it.
func fuzzDisk(t testing.TB, body []byte) *blockdev.MemDisk {
	t.Helper()
	disk := newDisk(t, fuzzBS, fuzzBS, fuzzSlots)
	img := make([]byte, disk.Blocks()*fuzzBS)
	copy(img, blockMagic)
	binary.LittleEndian.PutUint32(img[8:12], fuzzBS)
	binary.LittleEndian.PutUint64(img[12:20], fuzzSlots)
	binary.LittleEndian.PutUint64(img[20:28], physSlotsFor(fuzzSlots))
	binary.LittleEndian.PutUint32(img[28:32], formatVersion)
	binary.LittleEndian.PutUint64(img[32:40], fuzzEpoch)
	copy(img[fuzzBS:], body)
	if err := disk.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return disk
}

// fuzzSeeds returns device bodies (everything after the superblock) in the
// fuzz geometry, all of epoch fuzzEpoch: dirty devices a previous life left,
// and the crash images of a seeded run of unique writes, remaps and repairs
// formatted over one of them — after each whole write and with each
// multi-block write torn after its header.
func fuzzSeeds(t testing.TB) [][]byte {
	prev := newEpoch
	newEpoch = func() uint64 { return fuzzEpoch }
	defer func() { newEpoch = prev }()
	body := func(d blockdev.Device) []byte {
		img := make([]byte, (d.Blocks()-1)*fuzzBS)
		if err := d.ReadAt(img, 1); err != nil {
			t.Fatal(err)
		}
		return img
	}
	var seeds [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		seeds = append(seeds, body(dirtyDiskOf(t, fuzzBS, fuzzBS, fuzzSlots, rand.New(rand.NewSource(seed)))))
	}
	rng := rand.New(rand.NewSource(4))
	disk := dirtyDiskOf(t, fuzzBS, fuzzBS, fuzzSlots, rng)
	base, err := disk.Clone()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recDisk{Device: disk}
	be, err := OpenBlockBackend(rec, fuzzBS, fuzzSlots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, fuzzBS, fuzzSlots)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 24; k++ {
		slot, data := uint64(rng.Intn(fuzzSlots)), chunkN(int64(rng.Intn(12)), fuzzBS)
		if rng.Intn(4) == 0 {
			err = s.Repair(slot, data)
		} else {
			_, err = s.Write(slot, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range rec.log {
		if len(w.data) > fuzzBS {
			torn, err := base.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if err := torn.WriteAt(w.data[:fuzzBS], w.lba); err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, body(torn))
		}
		if err := base.WriteAt(w.data, w.lba); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, body(base))
	}
	return seeds
}

// FuzzOpenBlockBackend opens arbitrary device contents under a valid
// superblock. An open may fail, with an error; one that succeeds must give
// a store whose chunk slots are each free or indexed, whose index holds
// only mapped chunks, whose slots mapped by a header claim read back
// verified and whose other mapped slots read back verified or fail typed
// (ErrCorrupt, ErrNoChunk); and a write after the open must outrank
// everything on the device at the next open.
func FuzzOpenBlockBackend(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		disk := fuzzDisk(t, body)
		be, err := OpenBlockBackend(disk, fuzzBS, fuzzSlots)
		if err != nil {
			return
		}
		_, onDevice, err := be.readTable()
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(be, fuzzBS, fuzzSlots)
		if err != nil {
			t.Fatalf("store over an opened backend: %v", err)
		}
		checkSlotAccounting(t, "open", be)
		for _, id := range be.Chunks() {
			if refs(s, id) == 0 {
				t.Fatalf("unmapped chunk %s indexed", id)
			}
		}
		for slot := uint64(0); slot < fuzzSlots; slot++ {
			err := s.VerifySlot(slot)
			if err == nil {
				continue
			}
			if be.gens[slot] > onDevice[slot] {
				t.Fatalf("slot %d, mapped by a header claim, does not verify: %v", slot, err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoChunk) {
				t.Fatalf("slot %d: untyped read failure %v", slot, err)
			}
		}
		data := chunkN(99, fuzzBS)
		if _, err := s.Write(1, data); err != nil {
			t.Fatalf("write after open: %v", err)
		}
		be2, err := OpenBlockBackend(disk, fuzzBS, fuzzSlots)
		if err != nil {
			t.Fatalf("reopen after a write: %v", err)
		}
		s2, err := Open(be2, fuzzBS, fuzzSlots)
		if err != nil {
			t.Fatal(err)
		}
		if s2.IDAt(1) != Sum(data) {
			t.Fatalf("reopen maps slot 1 to %s, the write after open put %s", s2.IDAt(1), Sum(data))
		}
		if err := s2.VerifySlot(1); err != nil {
			t.Fatalf("slot 1 after reopen: %v", err)
		}
	})
}

package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
)

// devWrite is one WriteAt as the device saw it.
type devWrite struct {
	lba  uint64
	data []byte
	op   int // index of the Store operation that issued it
}

// recDisk passes every access through and logs the writes, tagged with the
// operation the test says is running.
type recDisk struct {
	blockdev.Device
	op  int
	log []devWrite
}

func (d *recDisk) WriteAt(p []byte, lba uint64) error {
	d.log = append(d.log, devWrite{lba: lba, data: append([]byte(nil), p...), op: d.op})
	return d.Device.WriteAt(p, lba)
}

// TestCrashPrefixes is the proof behind the layout comment in block.go. It
// records the device writes of a seeded mix of unique, duplicate and
// overwriting Store.Writes and Repairs, then for every crash the log allows
// — after any whole write, and inside each multi-block write with either a
// block prefix or all blocks but one landed (the torn one-write put) — it
// reopens the image and checks what recovery promises.
func TestCrashPrefixes(t *testing.T) {
	const (
		slots = 8
		nOps  = 60
		bs    = 512
	)
	disk := newBlockDisk(t, slots)
	rec := &recDisk{Device: disk}
	be, err := OpenBlockBackend(rec, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	base, err := disk.Clone() // formatted, empty
	if err != nil {
		t.Fatal(err)
	}
	rec.log = nil

	rng := rand.New(rand.NewSource(13))
	content := make([][]byte, slots) // what each slot holds, nil = unmapped
	table := func() []ID {
		out := make([]ID, slots)
		for i, c := range content {
			if c != nil {
				out[i] = Sum(c)
			}
		}
		return out
	}
	mapped := func() (uint64, bool) {
		for _, i := range rng.Perm(slots) {
			if content[i] != nil {
				return uint64(i), true
			}
		}
		return 0, false
	}
	// tables[k] is the slot table before operation k, tables[nOps] the final
	// one. repaired[k] is the chunk operation k was rewriting as an in-place
	// Repair (delete, then re-put under the live mapping), zero otherwise.
	tables := make([][]ID, nOps+1)
	repaired := make([]ID, nOps+1)
	tables[0] = table()
	for k := 0; k < nOps; k++ {
		rec.op = k
		slot := uint64(rng.Intn(slots))
		src, have := mapped()
		switch kind := rng.Intn(5); {
		case kind == 0 && have: // another slot's content: dedup, no put
			content[slot] = content[src]
			_, err = s.Write(slot, content[slot])
		case kind == 1 && have: // in-place repair of intact content
			repaired[k] = Sum(content[src])
			err = s.Repair(src, content[src])
		case kind == 2: // repair with different content: the Write path
			content[slot] = chunkOf(int64(1000 + k))
			err = s.Repair(slot, content[slot])
		default: // unique content, over an unmapped or a mapped slot
			content[slot] = chunkOf(int64(k))
			_, err = s.Write(slot, content[slot])
		}
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		tables[k+1] = table()
	}
	log := rec.log

	// check reopens one crash image. The crash fell inside (or just before)
	// operation k; k == nOps is the complete run.
	check := func(name string, img *blockdev.MemDisk, k int) {
		t.Helper()
		be, err := OpenBlockBackend(img, testChunk, slots)
		if err != nil {
			t.Fatalf("%s: open backend: %v", name, err)
		}
		s, err := Open(be, testChunk, slots)
		if err != nil {
			t.Fatalf("%s: open store: %v", name, err)
		}
		before, after := tables[k], tables[min(k+1, nOps)]
		count := map[ID]int{}
		for slot := uint64(0); slot < slots; slot++ {
			id := s.IDAt(slot)
			if id != before[slot] && id != after[slot] {
				t.Fatalf("%s: slot %d maps %s, neither its old nor its new ID", name, slot, id)
			}
			if id.IsZero() {
				continue
			}
			count[id]++
			if err := s.VerifySlot(slot); err != nil {
				unreadable := errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNoChunk)
				if !unreadable || id != repaired[k] {
					t.Fatalf("%s: slot %d (%s): %v", name, slot, id, err)
				}
			}
		}
		if got := s.Stats().LiveChunks; got != uint64(len(count)) {
			t.Fatalf("%s: %d live chunks, table references %d", name, got, len(count))
		}
		for id, n := range count {
			if s.Refs(id) != n {
				t.Fatalf("%s: refs[%s] = %d, table holds %d", name, id, s.Refs(id), n)
			}
		}
		for _, id := range be.Chunks() {
			if count[id] == 0 {
				t.Fatalf("%s: orphan chunk %s survived Open", name, id)
			}
		}
		if uint64(len(be.free)+len(be.index)) != be.physSlots {
			t.Fatalf("%s: %d free + %d indexed slots, want %d", name, len(be.free), len(be.index), be.physSlots)
		}
		used := map[uint64]bool{}
		for _, slot := range be.index {
			used[slot] = true
		}
		for _, slot := range be.free {
			if used[slot] {
				t.Fatalf("%s: chunk slot %d both free and indexed", name, slot)
			}
		}
	}

	clone := func(d *blockdev.MemDisk) *blockdev.MemDisk {
		c, err := d.Clone()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cur := base // holds log[:w]
	states := 0
	for w := 0; w <= len(log); w++ {
		k := nOps
		if w < len(log) {
			k = log[w].op
		}
		check(fmt.Sprintf("after %d writes", w), clone(cur), k)
		states++
		if w == len(log) {
			break
		}
		wr := log[w]
		nb := len(wr.data) / bs
		block := func(img *blockdev.MemDisk, i int) {
			if err := img.WriteAt(wr.data[i*bs:(i+1)*bs], wr.lba+uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for n := 1; n < nb; n++ { // the first n blocks landed
			img := clone(cur)
			for i := 0; i < n; i++ {
				block(img, i)
			}
			check(fmt.Sprintf("write %d torn after %d of %d blocks", w, n, nb), img, k)
			states++
		}
		for skip := 0; skip < nb && nb > 1; skip++ { // every block but one landed
			img := clone(cur)
			for i := 0; i < nb; i++ {
				if i != skip {
					block(img, i)
				}
			}
			check(fmt.Sprintf("write %d without block %d of %d", w, skip, nb), img, k)
			states++
		}
		if err := cur.WriteAt(wr.data, wr.lba); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d operations, %d device writes, %d crash images", nOps, len(log), states)
}

// TestBlockBackendIOBudget pins the device commands a Store.Write costs on
// a block backend, so the read-modify-write of the slot table and the
// two-write put cannot come back unnoticed.
func TestBlockBackendIOBudget(t *testing.T) {
	const slots = 16
	disk := blockdev.NewCountingDisk(newBlockDisk(t, slots))
	be, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(slot uint64, data []byte) (writes, reads int64) {
		t.Helper()
		w, r := disk.Writes(), disk.Reads()
		if _, err := s.Write(slot, data); err != nil {
			t.Fatal(err)
		}
		return disk.Writes() - w, disk.Reads() - r
	}
	if w, r := cost(0, chunkOf(1)); w != 2 || r != 0 {
		t.Fatalf("unique write to an unmapped slot: %d writes / %d reads, want 2 / 0 (chunk, map)", w, r)
	}
	if w, r := cost(0, chunkOf(2)); w != 3 || r != 0 {
		t.Fatalf("unique overwrite: %d writes / %d reads, want 3 / 0 (chunk, map, old header)", w, r)
	}
	if w, r := cost(0, chunkOf(2)); w != 0 || r != 0 {
		t.Fatalf("same-ID rewrite: %d writes / %d reads, want 0 / 0", w, r)
	}
	if w, r := cost(1, chunkOf(2)); w != 1 || r != 0 {
		t.Fatalf("same content, other unmapped slot: %d writes / %d reads, want 1 / 0 (map)", w, r)
	}
	if _, err := s.Write(2, chunkOf(3)); err != nil {
		t.Fatal(err)
	}
	if w, r := cost(2, chunkOf(2)); w != 2 || r != 0 {
		t.Fatalf("same content, other mapped slot: %d writes / %d reads, want 2 / 0 (map, old header)", w, r)
	}
}

// TestFreshFormatSkipsScan: a fresh format knows what it has just written,
// so it sets up the index and free list without reading the headers back.
// The device here carries a previous tenant's chunks under a wiped
// superblock, so the state is only right if format really cleared them; a
// reopen of the formatted device, which does scan, must find exactly what
// the fresh open assumed.
func TestFreshFormatSkipsScan(t *testing.T) {
	const slots = 16
	mem := newBlockDisk(t, slots)
	old, err := OpenBlockBackend(mem, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		data := chunkOf(i)
		if err := old.PutChunk(Sum(data), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.WriteAt(make([]byte, 512), 0); err != nil { // wipe the superblock
		t.Fatal(err)
	}

	disk := blockdev.NewCountingDisk(mem)
	fresh, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if r := disk.Reads(); r != 1 {
		t.Errorf("fresh format read the device %d times, want 1 (the superblock)", r)
	}
	reopened, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if r := disk.Reads(); r < 1+int64(fresh.physSlots) {
		t.Fatalf("reopen read the device %d times in all: it did not scan", r)
	}
	if len(fresh.index) != 0 || len(reopened.index) != 0 {
		t.Errorf("index after format: %d entries assumed, %d scanned, want 0 and 0", len(fresh.index), len(reopened.index))
	}
	if fmt.Sprint(fresh.free) != fmt.Sprint(reopened.free) || uint64(len(fresh.free)) != fresh.physSlots {
		t.Errorf("free list after format:\n assumed %v\n scanned %v", fresh.free, reopened.free)
	}
	for i, id := range fresh.table {
		if id != reopened.table[i] || id != (ID{}) {
			t.Errorf("slot %d mapped after format: assumed %s, read %s", i, id, reopened.table[i])
		}
	}
}

// TestWriteIDEquivalence drives one store through Write and a twin through
// WriteID with the same seeded sequence: table, refcounts, stats, content
// and the device image must come out identical.
func TestWriteIDEquivalence(t *testing.T) {
	const slots = 12
	open := func() (*Store, *BlockBackend, *blockdev.MemDisk) {
		disk := newBlockDisk(t, slots)
		be, err := OpenBlockBackend(disk, testChunk, slots)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(be, testChunk, slots)
		if err != nil {
			t.Fatal(err)
		}
		return s, be, disk
	}
	a, _, diskA := open()
	b, _, diskB := open()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		slot, data := uint64(rng.Intn(slots)), chunkOf(int64(rng.Intn(20)))
		dupA, errA := a.Write(slot, data)
		dupB, errB := b.WriteID(slot, Sum(data), data)
		if errA != nil || errB != nil || dupA != dupB {
			t.Fatalf("step %d: Write = (%v, %v), WriteID = (%v, %v)", i, dupA, errA, dupB, errB)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	for slot := uint64(0); slot < slots; slot++ {
		if id := a.IDAt(slot); id != b.IDAt(slot) || a.Refs(id) != b.Refs(id) {
			t.Fatalf("slot %d: %s ×%d vs %s ×%d", slot, id, a.Refs(id), b.IDAt(slot), b.Refs(b.IDAt(slot)))
		}
	}
	ha, err := a.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if hb, err := b.LogicalHash(); err != nil || ha != hb {
		t.Fatalf("logical hash %s vs %s (%v)", ha, hb, err)
	}
	if imageHash(t, diskA) != imageHash(t, diskB) {
		t.Fatal("device images differ")
	}
}

// TestSlotTableMirrorsDevice: through writes, repairs and a reopen, the
// table SetMapping composes map blocks from is the table on the device.
func TestSlotTableMirrorsDevice(t *testing.T) {
	const slots = 20 // 2.5 map blocks of 8 entries
	disk := newBlockDisk(t, slots)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 3; round++ {
		be, err := OpenBlockBackend(disk, testChunk, slots)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(be, testChunk, slots)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			slot, data := uint64(rng.Intn(slots)), chunkOf(int64(rng.Intn(30)))
			if rng.Intn(4) == 0 {
				err = s.Repair(slot, data)
			} else {
				_, err = s.Write(slot, data)
			}
			if err != nil {
				t.Fatal(err)
			}
			onDev, err := be.readTable()
			if err != nil {
				t.Fatal(err)
			}
			for j := range onDev {
				if onDev[j] != be.table[j] || onDev[j] != s.IDAt(uint64(j)) {
					t.Fatalf("round %d step %d slot %d: device %s, backend %s, store %s",
						round, i, j, onDev[j], be.table[j], s.IDAt(uint64(j)))
				}
			}
		}
	}
}

// tearDisk fails the next multi-block write after letting its first block
// (a chunk header) through.
type tearDisk struct {
	blockdev.Device
	armed bool
}

func (d *tearDisk) WriteAt(p []byte, lba uint64) error {
	if bs := d.BlockSize(); d.armed && len(p) > bs {
		d.armed = false
		if err := d.Device.WriteAt(p[:bs], lba); err != nil {
			return err
		}
		return errors.New("injected: write torn after one block")
	}
	return d.Device.WriteAt(p, lba)
}

// TestFailedPutLeavesNoHeader: a put whose device write fails part-way, in
// a process that keeps running, must not leave a header over partial data
// where a later reopen would index it ahead of the chunk's good copy.
func TestFailedPutLeavesNoHeader(t *testing.T) {
	const slots = 8
	disk := newBlockDisk(t, slots)
	td := &tearDisk{Device: disk}
	be, err := OpenBlockBackend(td, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(0, chunkOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(1, chunkOf(2)); err != nil {
		t.Fatal(err)
	}
	td.armed = true
	if _, err := s.Write(2, chunkOf(3)); err == nil {
		t.Fatal("torn put reported success")
	}
	// Free a chunk slot above the torn one, so the retry lands elsewhere.
	if _, err := s.Write(1, chunkOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(2, chunkOf(3)); err != nil {
		t.Fatalf("retry after torn put: %v", err)
	}
	be2, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(be2, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < 3; slot++ {
		if err := s2.VerifySlot(slot); err != nil {
			t.Fatalf("slot %d after reopen: %v", slot, err)
		}
	}
}

// imageHash hashes every block of the device.
func imageHash(t *testing.T, d blockdev.Device) string {
	t.Helper()
	h := sha256.New()
	blk := make([]byte, d.BlockSize())
	for lba := uint64(0); lba < d.Blocks(); lba++ {
		if err := d.ReadAt(blk, lba); err != nil {
			t.Fatal(err)
		}
		h.Write(blk)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBlockLayoutUnchanged pins the on-device format: the image a seeded
// run leaves must hash to what the same run left under the two-write put
// and the read-modify-write slot table (commit adb49c3), so replicas written
// by either open under the other.
func TestBlockLayoutUnchanged(t *testing.T) {
	const slots = 12
	disk := newBlockDisk(t, slots)
	be, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 150; i++ {
		slot, data := uint64(rng.Intn(slots)), chunkOf(int64(rng.Intn(25)))
		if rng.Intn(5) == 0 {
			err = s.Repair(slot, data)
		} else {
			_, err = s.Write(slot, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	const want = "9b36a73fb0071a5377fe5d7790b2fab531519415dfd60a11a439fc734e96e7b9"
	if got := imageHash(t, disk); got != want {
		t.Fatalf("device image hashes to %s, want %s", got, want)
	}
}

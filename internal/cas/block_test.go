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
// operation the test says is running, and counts the flushes.
type recDisk struct {
	blockdev.Device
	op      int
	log     []devWrite
	flushes int
}

func (d *recDisk) WriteAt(p []byte, lba uint64) error {
	d.log = append(d.log, devWrite{lba: lba, data: append([]byte(nil), p...), op: d.op})
	return d.Device.WriteAt(p, lba)
}

func (d *recDisk) Flush() error {
	d.flushes++
	return d.Device.Flush()
}

// dirtyDisk returns the device a previous life left behind: every chunk
// slot holds a claim on chunkOf(seed) for a seed below 64 drawn from rng,
// about a third of them over data that does not hash to the ID, the slot
// table maps the first slots' chunks, and the superblock is wiped.
func dirtyDisk(t *testing.T, slots uint64, rng *rand.Rand) *blockdev.MemDisk {
	t.Helper()
	disk := newBlockDisk(t, slots)
	be, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range rng.Perm(64)[:be.physSlots] {
		data := chunkOf(int64(seed))
		id := Sum(data)
		if err := be.PutChunk(id, data); err != nil {
			t.Fatal(err)
		}
		if uint64(i) < slots {
			if err := be.SetMapping(uint64(i), id); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(3) == 0 {
			if err := be.CorruptChunk(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := disk.WriteAt(make([]byte, disk.BlockSize()), 0); err != nil {
		t.Fatal(err)
	}
	return disk
}

// TestCrashPrefixes is the proof behind the layout comment in block.go. It
// formats a dirty device, whose old claims include torn ones and IDs the
// run writes again, and records the device writes of that format and of a
// seeded mix of unique, duplicate, overwriting and previously released
// Store.Writes and of Repairs. Then for every crash the log allows — after
// any whole write, and inside each multi-block write with either a block
// prefix or all blocks but one landed (the torn one-write put, including a
// put into a released slot that leaves the stale header over new data) —
// it reopens the image and checks what recovery promises.
func TestCrashPrefixes(t *testing.T) {
	const (
		slots = 8
		nOps  = 60
		bs    = 512
	)
	rng := rand.New(rand.NewSource(13))
	disk := dirtyDisk(t, slots, rng)
	base, err := disk.Clone()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recDisk{Device: disk} // format's writes count as operation 0's
	be, err := OpenBlockBackend(rec, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}

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
		switch kind := rng.Intn(6); {
		case kind == 0 && have: // another slot's content: dedup, no put
			content[slot] = content[src]
			_, err = s.Write(slot, content[slot])
		case kind == 1 && have: // in-place repair of intact content
			repaired[k] = Sum(content[src])
			err = s.Repair(src, content[src])
		case kind == 2: // repair with different content: the Write path
			content[slot] = chunkOf(int64(1000 + k))
			err = s.Repair(slot, content[slot])
		case kind == 3: // earlier content: its stale header may contest the put
			content[slot] = chunkOf(int64(rng.Intn(k + 1)))
			_, err = s.Write(slot, content[slot])
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
			if refs(s, id) != n {
				t.Fatalf("%s: refs[%s] = %d, table holds %d", name, id, refs(s, id), n)
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

// TestBlockBackendIOBudget pins the device commands a format, a
// Store.Write and a reopen cost on a block backend, so the read-modify-write
// of the slot table, the two-write put, the header clear on release, the
// per-header format and a scan that reads every chunk cannot come back
// unnoticed.
func TestBlockBackendIOBudget(t *testing.T) {
	const slots = 16
	mem := newBlockDisk(t, slots)
	rec := &recDisk{Device: mem}
	disk := blockdev.NewCountingDisk(rec)
	be, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	table := int(be.mapBlocks) * mem.BlockSize()
	if len(rec.log) != 2 || rec.log[0].lba != 1 || len(rec.log[0].data) != table || rec.log[1].lba != 0 || rec.flushes != 1 {
		t.Fatalf("format: %d writes, first %d bytes at lba %d, %d flushes; want the %d-byte slot table at lba 1, the superblock at 0, one flush",
			len(rec.log), len(rec.log[0].data), rec.log[0].lba, rec.flushes, table)
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
	if w, r := cost(0, chunkOf(2)); w != 2 || r != 0 {
		t.Fatalf("unique overwrite: %d writes / %d reads, want 2 / 0 (chunk, map)", w, r)
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
	if w, r := cost(2, chunkOf(2)); w != 1 || r != 0 {
		t.Fatalf("same content, other mapped slot: %d writes / %d reads, want 1 / 0 (map)", w, r)
	}

	// Contest one ID: released twice over, chunk x is put again into y's
	// old slot, below its own stale claim. A reopen reads the superblock,
	// the slot table and every header, and chunk data only for x's claims
	// until one hashes: the first, its live one.
	x, y := chunkOf(4), chunkOf(5)
	for _, c := range [][]byte{x, y} {
		if err := be.PutChunk(Sum(c), c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range [][]byte{x, y} {
		if err := be.DeleteChunk(Sum(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.PutChunk(Sum(x), x); err != nil {
		t.Fatal(err)
	}
	r := disk.Reads()
	reopened, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := disk.Reads()-r, int64(1+be.mapBlocks+be.physSlots+1); got != want {
		t.Fatalf("reopen: %d reads, want %d (superblock, %d table blocks, %d headers, one chunk)",
			got, want, be.mapBlocks, be.physSlots)
	}
	if reopened.index[Sum(x)] != be.index[Sum(x)] {
		t.Fatalf("reopen indexed x at slot %d, the live copy is at %d", reopened.index[Sum(x)], be.index[Sum(x)])
	}
}

// TestFreshFormatSkipsScan: a fresh format knows what it has just written,
// so it sets up the index and free list without reading the device back.
// The device here is dirty, a previous tenant's chunks and slot table under
// a wiped superblock, and format leaves the old headers as orphan claims.
// So a store over the formatted device, reopened with a scan, must hold
// none of the previous tenant's chunks and have every chunk slot free.
func TestFreshFormatSkipsScan(t *testing.T) {
	const slots = 16
	disk := blockdev.NewCountingDisk(dirtyDisk(t, slots, rand.New(rand.NewSource(3))))
	fresh, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if r := disk.Reads(); r != 1 {
		t.Errorf("fresh format read the device %d times, want 1 (the superblock)", r)
	}
	if len(fresh.index) != 0 || uint64(len(fresh.free)) != fresh.physSlots {
		t.Errorf("fresh format assumed %d chunks and %d free slots, want 0 and %d", len(fresh.index), len(fresh.free), fresh.physSlots)
	}
	reopened, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if r := disk.Reads(); r < 1+int64(fresh.physSlots) {
		t.Fatalf("reopen read the device %d times in all: it did not scan", r)
	}
	s, err := Open(reopened, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < slots; slot++ {
		if id := s.IDAt(slot); !id.IsZero() {
			t.Errorf("slot %d maps %s after format", slot, id)
		}
	}
	if live := reopened.Chunks(); len(live) != 0 {
		t.Errorf("%d of the previous tenant's chunks live after format and reopen", len(live))
	}
	if uint64(len(reopened.free)+len(reopened.index)) != reopened.physSlots {
		t.Errorf("%d free + %d indexed slots, want %d", len(reopened.free), len(reopened.index), reopened.physSlots)
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
		if id := a.IDAt(slot); id != b.IDAt(slot) || refs(a, id) != refs(b, id) {
			t.Fatalf("slot %d: %s ×%d vs %s ×%d", slot, id, refs(a, id), b.IDAt(slot), refs(b, b.IDAt(slot)))
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

// TestFailedPutLosesToIntactCopy: a put whose device write fails part-way,
// in a process that keeps running, leaves a header over partial data. When
// the chunk is then put intact into another slot, a reopen meets the torn
// claim first and must index the intact one.
func TestFailedPutLosesToIntactCopy(t *testing.T) {
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
	torn, id := be.free[len(be.free)-1], Sum(chunkOf(3))
	td.armed = true
	if _, err := s.Write(2, chunkOf(3)); err == nil {
		t.Fatal("torn put reported success")
	}
	// Free a chunk slot above the torn one, so the retry lands there.
	if _, err := s.Write(1, chunkOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(2, chunkOf(3)); err != nil {
		t.Fatalf("retry after torn put: %v", err)
	}
	if intact := be.index[id]; intact <= torn {
		t.Fatalf("retry put slot %d, not above the torn claim in slot %d", intact, torn)
	}
	be2, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(be2, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if be2.index[id] != be.index[id] {
		t.Fatalf("reopen indexed the chunk at slot %d, the intact copy is at %d", be2.index[id], be.index[id])
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
// run leaves must hash to a fixed value. Since a release stopped clearing
// the chunk header, the image keeps stale claims that earlier versions
// zeroed, so its hash moved; the formats still open under each other. An
// older image has no stale claims to arbitrate. And in a newer, clean,
// crash-free image, every claim of an ID that several slots claim holds
// intact bytes, which is what lets the older first-claim-wins scan open it.
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
	const want = "5eaaa1bd49912f3b1e0e2eab892af601df38fac6ad8ac3240f1d7052fde6f91c"
	if got := imageHash(t, disk); got != want {
		t.Fatalf("device image hashes to %s, want %s", got, want)
	}

	claims := map[ID][]uint64{}
	hdr := make([]byte, disk.BlockSize())
	for slot := uint64(0); slot < be.physSlots; slot++ {
		if err := disk.ReadAt(hdr, be.headerLBA(slot)); err != nil {
			t.Fatal(err)
		}
		if string(hdr[:8]) == chunkMagic {
			id := ID(hdr[12:44])
			claims[id] = append(claims[id], slot)
		}
	}
	contested := 0
	data := make([]byte, testChunk)
	for id, slots := range claims {
		if len(slots) < 2 {
			continue
		}
		contested++
		for _, slot := range slots {
			if err := disk.ReadAt(data, be.headerLBA(slot)+1); err != nil {
				t.Fatal(err)
			}
			if Sum(data) != id {
				t.Errorf("chunk slot %d claims %s over other bytes", slot, id)
			}
		}
	}
	if contested == 0 {
		t.Fatal("the run left no ID claimed twice: nothing checked")
	}
	t.Logf("%d IDs claimed more than once, every claim intact", contested)
}

package cas

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
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

// dirtyDisk returns the device a previous life left behind, in the test
// geometry (512-byte blocks, testChunk chunks).
func dirtyDisk(t testing.TB, slots uint64, rng *rand.Rand) *blockdev.MemDisk {
	t.Helper()
	return dirtyDiskOf(t, 512, testChunk, slots, rng)
}

// dirtyDiskOf returns the device a previous life left behind: every chunk
// slot holds a claim on a chunk of seed below 64 drawn from rng, about a
// third of them over data that does not hash to the ID; the first slots'
// chunks are mapped, half by their headers and half by the slot table; and
// the superblock is wiped.
func dirtyDiskOf(t testing.TB, bs, chunk int, slots uint64, rng *rand.Rand) *blockdev.MemDisk {
	t.Helper()
	disk := newDisk(t, bs, chunk, slots)
	be, err := OpenBlockBackend(disk, chunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range rng.Perm(64)[:be.physSlots] {
		data := chunkN(int64(seed), chunk)
		id := Sum(data)
		slot := uint64(i)
		if slot >= slots || slot%2 == 1 {
			slot = NoSlot
		}
		if err := be.PutChunk(slot, id, data); err != nil {
			t.Fatal(err)
		}
		if uint64(i) < slots && slot == NoSlot {
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
// formats a dirty device, whose old claims include torn ones, mappings of a
// previous epoch and IDs the run writes again, and records the device
// writes of that format and of a seeded mix of Store operations: unique
// writes (the put carries the mapping), remaps to stored chunks (the slot
// table), overwrites, writes of previously released content, and Repairs,
// among them Repairs of a chunk whose header holds its slot's mapping. Then
// for every crash the log allows — after any whole write, and inside each
// multi-block write with either a block prefix or all blocks but one landed
// (the torn one-write put, including a put into a released slot that leaves
// the stale header over new data) — it reopens the image and checks what
// recovery promises: every slot maps its old or its new ID and reads back
// verified.
func TestCrashPrefixes(t *testing.T) {
	const (
		slots = 8
		nOps  = 100
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
	// one.
	tables := make([][]ID, nOps+1)
	tables[0] = table()
	headerRepairs := 0
	for k := 0; k < nOps; k++ {
		rec.op = k
		slot := uint64(rng.Intn(slots))
		src, have := mapped()
		switch kind := rng.Intn(6); {
		case kind == 0 && have: // another slot's content: dedup, no put
			content[slot] = content[src]
			_, err = s.Write(slot, content[slot])
		case kind == 1 && have: // repair of intact content, a fresh copy
			id := Sum(content[src])
			if c := be.claims[be.index[id]]; c.gen != 0 && be.table[c.slot] == id && be.gens[c.slot] == c.gen {
				headerRepairs++ // the copy carries a slot's mapping
			}
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
	if headerRepairs == 0 {
		t.Fatal("no Repair rewrote a chunk whose header maps a slot: the mix misses that case")
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
				t.Fatalf("%s: slot %d (%s): %v", name, slot, id, err)
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
		checkSlotAccounting(t, name, be)
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

// checkSlotAccounting fails unless every chunk slot is either free or
// indexed, and not both.
func checkSlotAccounting(t testing.TB, name string, be *BlockBackend) {
	t.Helper()
	if uint64(len(be.free)+len(be.index)) != be.physSlots {
		t.Fatalf("%s: %d free + %d indexed slots, want %d", name, len(be.free), len(be.index), be.physSlots)
	}
	used := map[uint64]bool{}
	for _, phys := range be.index {
		if phys >= be.physSlots || used[phys] {
			t.Fatalf("%s: chunk slot %d indexed twice or out of range", name, phys)
		}
		used[phys] = true
	}
	for _, phys := range be.free {
		if phys >= be.physSlots || used[phys] {
			t.Fatalf("%s: chunk slot %d both free and indexed, or out of range", name, phys)
		}
		used[phys] = true
	}
}

// TestBlockBackendIOBudget pins the device commands a format, a
// Store.Write and a reopen cost on a block backend: a unique write is one
// device write, its mapping in the chunk's header; a remap to a stored chunk
// is one slot-table write; and a reopen reads chunk data only for a header
// claim that wins its slot or an ID more than one slot claims. So the
// read-modify-write of the slot table, a table write per put, the header
// clear on release, the per-header format and a scan that reads every
// chunk cannot come back unnoticed.
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
	if w, r := cost(0, chunkOf(1)); w != 1 || r != 0 {
		t.Fatalf("unique write to an unmapped slot: %d writes / %d reads, want 1 / 0 (chunk with its mapping)", w, r)
	}
	if w, r := cost(0, chunkOf(2)); w != 1 || r != 0 {
		t.Fatalf("unique overwrite: %d writes / %d reads, want 1 / 0 (chunk with its mapping)", w, r)
	}
	if w, r := cost(0, chunkOf(2)); w != 0 || r != 0 {
		t.Fatalf("same-ID rewrite: %d writes / %d reads, want 0 / 0", w, r)
	}
	if w, r := cost(1, chunkOf(2)); w != 1 || r != 0 {
		t.Fatalf("same content, other unmapped slot: %d writes / %d reads, want 1 / 0 (map)", w, r)
	}
	cost(2, chunkOf(3))
	if w, r := cost(2, chunkOf(2)); w != 1 || r != 0 {
		t.Fatalf("same content, other mapped slot: %d writes / %d reads, want 1 / 0 (map)", w, r)
	}

	for slot := uint64(8); slot < slots; slot++ {
		cost(slot, chunkOf(int64(100+slot))) // their table block is never written
	}

	// Contest one ID: x is written, released, and written again into y's
	// old chunk slot below its own stale claim, then remapped from a second
	// slot and unmapped from the first, so only the slot table maps x. A
	// reopen reads the superblock, the slot table and every header, the
	// data of each header claim that wins its slot (a slot-table write
	// carries the in-memory mappings of its block's other slots, so a claim
	// wins only while its block has not been written since), and x's claims
	// until one hashes: the first, its live one.
	x, y := chunkOf(4), chunkOf(5)
	cost(3, x)
	cost(4, y)
	cost(3, chunkOf(2)) // x released by a remap: its claim stays
	cost(4, chunkOf(2)) // y released above it
	cost(5, x)          // x again, into y's old chunk slot
	cost(6, x)
	cost(5, chunkOf(2))
	_, onDevice, err := be.readTable()
	if err != nil {
		t.Fatal(err)
	}
	winners := int64(0)
	for slot, gen := range be.gens {
		if gen > onDevice[slot] {
			winners++
		}
	}
	if winners != slots-8 {
		t.Fatalf("%d slots mapped by their header claim alone, want %d", winners, slots-8)
	}
	r := disk.Reads()
	reopened, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := disk.Reads()-r, int64(1+be.mapBlocks+be.physSlots)+winners+1; got != want {
		t.Fatalf("reopen: %d reads, want %d (superblock, %d table blocks, %d headers, %d winning claims, one contested chunk)",
			got, want, be.mapBlocks, be.physSlots, winners)
	}
	if reopened.index[Sum(x)] != be.index[Sum(x)] {
		t.Fatalf("reopen indexed x at chunk slot %d, the live copy is at %d", reopened.index[Sum(x)], be.index[Sum(x)])
	}
	if !slices.Equal(reopened.table, be.table) || !slices.Equal(reopened.gens, be.gens) {
		t.Fatalf("reopen settled mappings %v at %v, the store wrote %v at %v", reopened.table, reopened.gens, be.table, be.gens)
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
	pinEpoch(t, 5)
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

// TestSlotTableMirrorsDevice: through unique writes, remaps, repairs and
// reopens, a reopen of the device after every step settles the same
// mappings, generations included, as the backend holds and the store reads.
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
			reopened, err := OpenBlockBackend(disk, testChunk, slots)
			if err != nil {
				t.Fatal(err)
			}
			for j, id := range reopened.table {
				if id != be.table[j] || reopened.gens[j] != be.gens[j] || id != s.IDAt(uint64(j)) {
					t.Fatalf("round %d step %d slot %d: reopen %s@%d, backend %s@%d, store %s",
						round, i, j, id, reopened.gens[j], be.table[j], be.gens[j], s.IDAt(uint64(j)))
				}
			}
			if reopened.gen != be.gen {
				t.Fatalf("round %d step %d: reopen resumes after generation %d, the backend wrote %d", round, i, reopened.gen, be.gen)
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

// landDisk fails the next write after letting all of it land: a write
// whose completion was lost.
type landDisk struct {
	blockdev.Device
	armed bool
}

func (d *landDisk) WriteAt(p []byte, lba uint64) error {
	if err := d.Device.WriteAt(p, lba); err != nil || !d.armed {
		return err
	}
	d.armed = false
	return errors.New("injected: write landed, completion lost")
}

// TestLandedFailedPutYieldsToLiveCopy: a put reported failed may have
// landed whole, leaving an intact claim that maps its slot. When the same
// chunk is then put for another slot, a reopen must find the live copy and
// leave the failed write's slot as the store left it, not map it to a chunk
// slot the store holds free.
func TestLandedFailedPutYieldsToLiveCopy(t *testing.T) {
	const slots = 8
	disk := newBlockDisk(t, slots)
	ld := &landDisk{Device: disk}
	be, err := OpenBlockBackend(ld, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < 3; slot++ {
		if _, err := s.Write(slot, chunkOf(int64(slot))); err != nil {
			t.Fatal(err)
		}
	}
	ld.armed = true
	if _, err := s.Write(2, chunkOf(3)); err == nil {
		t.Fatal("failed put reported success")
	}
	// A remap frees a chunk slot above the landed one, so the next put
	// leaves it be.
	if _, err := s.Write(1, chunkOf(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(5, chunkOf(3)); err != nil {
		t.Fatal(err)
	}
	be2, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(be2, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < slots; slot++ {
		if got, want := s2.IDAt(slot), s.IDAt(slot); got != want {
			t.Errorf("slot %d maps %s after reopen, the store had %s", slot, got, want)
		}
		if err := s2.VerifySlot(slot); err != nil {
			t.Errorf("slot %d after reopen: %v", slot, err)
		}
	}
	checkSlotAccounting(t, "reopen", be2)
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

// layoutRun drives a store through TestBlockLayoutUnchanged's seeded mix
// of writes and repairs.
func layoutRun(t *testing.T, s *Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 150; i++ {
		slot, data := uint64(rng.Intn(int(s.Slots()))), chunkOf(int64(rng.Intn(25)))
		var err error
		if rng.Intn(5) == 0 {
			err = s.Repair(slot, data)
		} else {
			_, err = s.Write(slot, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlockLayoutUnchanged pins the on-device format: the image a seeded
// run leaves, format epoch pinned, must hash to a fixed value, and reopen
// to the store's mappings and content. The hash moved when puts began to
// carry their mappings (format version 2). Format-1 images still open,
// which TestOpensFormat1Image checks; this format's images do not open
// under format-1 code, which finds no superblock it knows.
func TestBlockLayoutUnchanged(t *testing.T) {
	const slots = 12
	pinEpoch(t, 1)
	disk := newBlockDisk(t, slots)
	be, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	layoutRun(t, s)
	const want = "ca3d3a672193925bd51aa0c64fac7a2f5ed45a2c2be3c1707f5f68342b3f06bd"
	if got := imageHash(t, disk); got != want {
		t.Fatalf("device image hashes to %s, want %s", got, want)
	}
	assertReopens(t, disk, s)
}

// assertReopens opens disk again and fails unless the store it gives has
// s's mappings, reference counts and logical content.
func assertReopens(t *testing.T, disk blockdev.Device, s *Store) {
	t.Helper()
	be, err := OpenBlockBackend(disk, s.ChunkSize(), s.Slots())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(be, s.ChunkSize(), s.Slots())
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < s.Slots(); slot++ {
		id := s.IDAt(slot)
		if got := s2.IDAt(slot); got != id || refs(s2, id) != refs(s, id) {
			t.Fatalf("slot %d: reopen maps %s ×%d, the store %s ×%d", slot, got, refs(s2, got), id, refs(s, id))
		}
	}
	want, err := s.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.LogicalHash(); err != nil || got != want {
		t.Fatalf("reopen's logical hash %s (%v), want %s", got, err, want)
	}
}

// TestOpensFormat1Image opens testdata/format1.img.gz, the image
// TestBlockLayoutUnchanged's run left in format version 1, before puts
// carried mappings. It must give the table, reference counts and content
// that run gave (replayed here on a MemBackend, and the logical hash
// format-1 code reported), rewrite the superblock so format-1 code cannot
// misread what this version writes next, and keep working as this format.
func TestOpensFormat1Image(t *testing.T) {
	const slots = 12
	f, err := os.Open("testdata/format1.img.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	disk := newBlockDisk(t, slots)
	if uint64(len(img)) != disk.Blocks()*512 {
		t.Fatalf("image is %d bytes, the geometry %d", len(img), disk.Blocks()*512)
	}
	if err := disk.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if string(img[:8]) != blockMagicV1 {
		t.Fatalf("image superblock magic %q, want format 1's %q", img[:8], blockMagicV1)
	}

	ref := openMem(t, slots)
	layoutRun(t, ref)
	be, err := OpenBlockBackend(disk, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be, testChunk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for slot, gen := range be.gens {
		if gen != 0 {
			t.Fatalf("slot %d opened at generation %d; format 1 has none", slot, gen)
		}
		id := ref.IDAt(uint64(slot))
		if got := s.IDAt(uint64(slot)); got != id || refs(s, id) != refs(ref, id) {
			t.Fatalf("slot %d maps %s ×%d, the run left %s ×%d", slot, got, refs(s, got), id, refs(ref, id))
		}
	}
	const format1Hash = "3c60b9f9334b543e078f6390c451f3fdfd707187b3b52e4478c0c39ab8f12fa3"
	for _, st := range []*Store{ref, s} {
		if h, err := st.LogicalHash(); err != nil || h.String() != format1Hash {
			t.Fatalf("logical hash %s (%v), want %s", h, err, format1Hash)
		}
	}
	sb := make([]byte, 512)
	if err := disk.ReadAt(sb, 0); err != nil {
		t.Fatal(err)
	}
	if string(sb[:8]) != blockMagic || binary.LittleEndian.Uint32(sb[28:32]) != formatVersion {
		t.Fatalf("superblock after open: magic %q version %d, want %q version %d",
			sb[:8], binary.LittleEndian.Uint32(sb[28:32]), blockMagic, formatVersion)
	}
	layoutRun(t, s)
	assertReopens(t, disk, s)
}

package cas

import (
	"cmp"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/blockdev"
)

// On-device layout of a block-backed CAS replica, in units of the device's
// block size bs:
//
//	lba 0                     superblock: magic, chunkSize, slots, physSlots,
//	                          format version, format epoch
//	lba 1 .. mapBlocks        slot table: one 64-byte entry per logical slot
//	                          (chunk ID at [0:32], zero = unmapped, and the
//	                          entry's generation at [32:40])
//	then physSlots ×          chunk slots: 1 header block (magic, length,
//	  (1 + chunkSize/bs)      chunk ID, then a mapping claim: slot, generation
//	                          and epoch) followed by the chunk's data blocks
//
// A chunk header is a claim twice over: its slot may hold the chunk with that
// ID, and the logical slot it names may map to that ID. Every mapping the
// backend writes, a slot-table entry or a header's mapping claim, carries a
// generation: one counter per backend, bumped by each such write and resumed
// at reopen above the largest generation on the device. A slot maps what the
// highest generation among its table entry and the claims naming it says; a
// winning claim counts only if its data blocks hash to its ID, and otherwise
// the next highest stands. A claim counts at all only with a non-zero
// generation, a slot inside the table and the epoch format drew for this
// device, so a previous life's headers never map anything. Format version 1,
// the layout before generations, is this one with every generation zero: its
// slot table is the only mapping.
//
// What each operation promises:
//
//   - format zeroes the slot table, then writes the superblock with a fresh
//     epoch, so a crash mid-format leaves an unformatted device. It leaves
//     the headers a previous life wrote: their epoch is not this one's, so
//     each is an orphan chunk claim and maps nothing.
//   - PutChunk writes a free slot's header, naming the logical slot it maps
//     under a new generation, and its data blocks as one device write. That
//     write is the mapping: the slot table is not written. A crash can tear
//     it: any subset of the blocks may land, including a header over partial
//     data or a stale header over new data. A put whose write fails leaves
//     its slot free and its claim behind.
//   - SetMapping, the remap of a slot to a chunk already stored, writes the
//     slot's table block under a new generation, composed from the in-memory
//     mappings (so the block's other slots get the mappings their headers
//     carry written into the table, at the same generation), and a flip is
//     atomic at block granularity.
//   - DeleteChunk writes nothing. The slot goes back on the free list and
//     its header stays, a stale claim, until a put reuses the slot.
//   - scan reads the table and every header, settles each slot's mapping as
//     above (reading the data of the winning claims only; a claim of an ID
//     a higher claim already located is a failed put that landed, and maps
//     nothing), and indexes the mapped IDs: for an ID mapped by a table
//     entry, the first claim whose data hashes to it, or its one claim
//     without reading it. Nothing else is indexed, so every other chunk slot
//     is free.
//
// Every crash image opens to the last mapping written or the one before it
// because a slot's newest mapping always has its evidence on the device.
// Generations are unique and rise, so a later write to a slot outranks
// every earlier one. Store.WriteID maps an ID only after its put has
// returned, and a chunk's slot stays off the free list, so no put overwrites
// its header or data, until the write that unmaps the ID has landed. So the
// previous mapping of a slot whose put tore is still intact when the torn
// claim loses its hash check, a mapped ID claimed once holds intact bytes,
// and a mapped ID claimed several times wins arbitration with intact bytes.
// The one caller that puts under a live mapping, Store.Repair, writes a
// fresh copy of the chunk under the header the old copy carries, claim and
// generation included, and frees the old copy only after the new one has
// landed: torn, its claim ties with the intact old one; whole, the old one
// is free. A chunk whose bytes rot under the claim that maps it fails the
// hash too: a reopen then falls back to the slot's previous mapping, which
// the scrubber's majority vote repairs as it repairs any divergent replica.
//
// TestCrashPrefixes replays every prefix and tear of a recorded write log,
// from a format over a dirty device on, against these claims.
const (
	blockMagic    = "STORMCAV" // versioned superblock: the version follows the geometry
	blockMagicV1  = "STORMCAS" // format version 1: no version field, no generations
	formatVersion = 2
	chunkMagic    = "CASCHUNK"
	mapEntryBytes = 64
	headerBytes   = 68                 // magic, length, ID, then the claim: slot, generation, epoch
	maxGen        = math.MaxUint64 / 2 // a device claiming more was not written by a store
	formatRun     = 1 << 20            // bytes of slot table per format write, at most
)

// claim is the mapping a chunk header carries: slot maps the header's ID at
// generation gen. The zero generation is no claim.
type claim struct {
	slot, gen uint64
}

// BlockBackend persists chunks on a blockdev.Device using the layout above.
type BlockBackend struct {
	mu        sync.Mutex
	dev       blockdev.Device
	bs        int
	chunkSize int
	slots     uint64
	physSlots uint64
	mapBlocks uint64
	dataStart uint64 // first lba of the chunk-slot area
	perSlot   uint64 // blocks per chunk slot (1 header + data)
	epoch     uint64 // drawn at format; a header claim from another epoch maps nothing
	gen       uint64 // the last generation written
	index     map[ID]uint64
	free      []uint64
	// table and gens are each slot's mapping and the generation it was
	// written under, as a reopen would settle them: the table entry or a
	// header claim, whichever won. SetMapping composes a table block from
	// them, which saves reading the block back.
	table []ID
	gens  []uint64
	// claims is what each chunk slot's header claims, as written; Repair
	// copies it onto the fresh copy. A fresh format allocates neither gens
	// nor claims before its first write (see written), so that setting up a
	// backend allocates what format needs and no more.
	claims []claim
	// Scratch, serialised by mu: putBuf is one chunk slot (header block,
	// then data) with the constant header fields filled in, mapBuf one map
	// block.
	putBuf, mapBuf []byte
}

// BlockBackendBytes returns the device size, in bytes, needed for a
// block-backed CAS replica with the given geometry. The chunk area carries
// slack beyond the logical slot count because a write puts its new chunk
// before releasing the old one and a crash can strand orphans until the
// next open.
func BlockBackendBytes(blockSize, chunkSize int, slots uint64) (uint64, error) {
	if blockSize <= 0 || chunkSize <= 0 || chunkSize%blockSize != 0 {
		return 0, fmt.Errorf("cas: chunk size %d not a multiple of block size %d", chunkSize, blockSize)
	}
	phys := physSlotsFor(slots)
	mapBlocks := (slots*mapEntryBytes + uint64(blockSize) - 1) / uint64(blockSize)
	perSlot := 1 + uint64(chunkSize/blockSize)
	return (1 + mapBlocks + phys*perSlot) * uint64(blockSize), nil
}

// physSlotsFor gives the chunk-area capacity for a logical slot count:
// every slot unique, plus 1/8 slack and a fixed floor for in-flight puts
// and crash orphans.
func physSlotsFor(slots uint64) uint64 {
	return slots + slots/8 + 16
}

// newEpoch draws a format epoch: random, never zero. Tests replace it to
// pin the images they hash.
var newEpoch = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// OpenBlockBackend opens (or formats) a block-backed replica on dev. A
// device whose superblock is absent or unreadable is formatted fresh; an
// existing superblock must match the requested geometry, and the slot table
// and chunk headers are scanned (see the layout comment) to rebuild the
// mappings, the ID index and the free list, which is what makes the backend
// crash-recoverable. A format-1 image is opened as one whose generations
// are all zero and its superblock rewritten as this version's, so code that
// reads only format 1 finds no image to misread.
func OpenBlockBackend(dev blockdev.Device, chunkSize int, slots uint64) (*BlockBackend, error) {
	bs := dev.BlockSize()
	if chunkSize <= 0 || chunkSize%bs != 0 {
		return nil, fmt.Errorf("cas: chunk size %d not a multiple of device block size %d", chunkSize, bs)
	}
	if bs%mapEntryBytes != 0 || bs < headerBytes {
		return nil, fmt.Errorf("cas: device block size %d not a multiple of the %d-byte map entry, or below the %d-byte chunk header",
			bs, mapEntryBytes, headerBytes)
	}
	if slots == 0 {
		return nil, fmt.Errorf("cas: zero slots")
	}
	b := &BlockBackend{
		dev:       dev,
		bs:        bs,
		chunkSize: chunkSize,
		slots:     slots,
		physSlots: physSlotsFor(slots),
		perSlot:   1 + uint64(chunkSize/bs),
		putBuf:    make([]byte, bs+chunkSize),
		mapBuf:    make([]byte, bs),
	}
	copy(b.putBuf, chunkMagic)
	binary.LittleEndian.PutUint32(b.putBuf[8:12], uint32(chunkSize))
	b.mapBlocks = (slots*mapEntryBytes + uint64(bs) - 1) / uint64(bs)
	b.dataStart = 1 + b.mapBlocks
	need := b.dataStart + b.physSlots*b.perSlot
	if dev.Blocks() < need {
		return nil, fmt.Errorf("cas: device has %d blocks, layout needs %d", dev.Blocks(), need)
	}

	sb := make([]byte, bs)
	if err := dev.ReadAt(sb, 0); err != nil {
		return nil, fmt.Errorf("cas: read superblock: %w", err)
	}
	if magic := string(sb[:8]); magic == blockMagic || magic == blockMagicV1 {
		gotChunk := binary.LittleEndian.Uint32(sb[8:12])
		gotSlots := binary.LittleEndian.Uint64(sb[12:20])
		gotPhys := binary.LittleEndian.Uint64(sb[20:28])
		if int(gotChunk) != chunkSize || gotSlots != slots || gotPhys != b.physSlots {
			return nil, fmt.Errorf("%w: device formatted chunk=%d slots=%d phys=%d, want chunk=%d slots=%d phys=%d",
				ErrGeometry, gotChunk, gotSlots, gotPhys, chunkSize, slots, b.physSlots)
		}
		if magic == blockMagic {
			if v := binary.LittleEndian.Uint32(sb[28:32]); v != formatVersion {
				return nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, v, formatVersion)
			}
			b.epoch = binary.LittleEndian.Uint64(sb[32:40])
		}
		if err := b.scan(); err != nil {
			return nil, err
		}
		if magic == blockMagicV1 {
			b.epoch = newEpoch()
			if err := b.writeSuperblock(); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	if err := b.format(); err != nil {
		return nil, err
	}
	// format has just zeroed the slot table under a fresh epoch, so every
	// header on the device is an orphan claim and the state is known without
	// reading: no mapping, no chunk, every slot free in ascending order (the
	// allocation order is part of the layout: see TestBlockLayoutUnchanged).
	b.table = make([]ID, slots)
	b.index = make(map[ID]uint64)
	b.free = make([]uint64, b.physSlots)
	for slot := range b.free {
		b.free[slot] = uint64(slot)
	}
	return b, nil
}

// format zeroes the slot table in runs of at most formatRun bytes and
// writes the superblock last, under a fresh epoch, so a crash mid-format
// leaves an unformatted device. Chunk headers stay as they are: see the
// layout comment.
func (b *BlockBackend) format() error {
	per := max(1, min(b.mapBlocks, formatRun/uint64(b.bs)))
	run := make([]byte, per*uint64(b.bs))
	for lba := uint64(1); lba < b.dataStart; lba += per {
		n := min(per, b.dataStart-lba)
		if err := b.dev.WriteAt(run[:n*uint64(b.bs)], lba); err != nil {
			return fmt.Errorf("cas: format slot table at block %d: %w", lba, err)
		}
	}
	b.epoch = newEpoch()
	return b.writeSuperblock()
}

// writeSuperblock writes this version's superblock and flushes.
func (b *BlockBackend) writeSuperblock() error {
	sb := make([]byte, b.bs)
	copy(sb, blockMagic)
	binary.LittleEndian.PutUint32(sb[8:12], uint32(b.chunkSize))
	binary.LittleEndian.PutUint64(sb[12:20], b.slots)
	binary.LittleEndian.PutUint64(sb[20:28], b.physSlots)
	binary.LittleEndian.PutUint32(sb[28:32], formatVersion)
	binary.LittleEndian.PutUint64(sb[32:40], b.epoch)
	if err := b.dev.WriteAt(sb, 0); err != nil {
		return fmt.Errorf("cas: write superblock: %w", err)
	}
	return b.dev.Flush()
}

// scan rebuilds the mappings, the ID index and the free list from the slot
// table and the chunk headers, settling claims as the layout comment
// describes. It allocates per device, not per chunk slot it verifies.
func (b *BlockBackend) scan() error {
	var err error
	if b.table, b.gens, err = b.readTable(); err != nil {
		return err
	}
	for _, g := range b.gens {
		b.gen = max(b.gen, g)
	}
	b.claims = make([]claim, b.physSlots)
	ids := make([]ID, b.physSlots)     // the ID each chunk slot's header claims
	first := make(map[ID]uint64)       // each claimed ID's first chunk slot
	contested := make(map[ID][]uint64) // every chunk slot of an ID claimed twice
	type candidate struct{ slot, gen, phys uint64 }
	var cands []candidate // mapping claims that outrank their slot's table entry
	hdr := make([]byte, b.bs)
	for phys := uint64(0); phys < b.physSlots; phys++ {
		if err := b.dev.ReadAt(hdr, b.headerLBA(phys)); err != nil {
			return fmt.Errorf("cas: scan header %d: %w", phys, err)
		}
		if string(hdr[:8]) != chunkMagic {
			continue
		}
		id := ID(hdr[12:44])
		ids[phys] = id
		if at, dup := first[id]; !dup {
			first[id] = phys
		} else if claims, ok := contested[id]; ok {
			contested[id] = append(claims, phys)
		} else {
			contested[id] = []uint64{at, phys}
		}
		c := claim{slot: binary.LittleEndian.Uint64(hdr[44:52]), gen: binary.LittleEndian.Uint64(hdr[52:60])}
		if c.gen == 0 || c.slot >= b.slots || binary.LittleEndian.Uint64(hdr[60:68]) != b.epoch {
			continue // no claim, or not one this device's table can hold
		}
		b.claims[phys] = c
		b.gen = max(b.gen, c.gen)
		if c.gen > b.gens[c.slot] {
			cands = append(cands, candidate{c.slot, c.gen, phys})
		}
	}
	if b.gen > maxGen {
		return fmt.Errorf("%w: generation %d leaves no room to count", ErrFormat, b.gen)
	}

	// Highest generation first, each slot's mapping is its first claim whose
	// data hashes to its ID, or its table entry when none does. A claim of an
	// ID a higher claim already located is a put that failed but landed,
	// made while the ID was unmapped: the higher one is the live copy, and
	// the lower one's slot keeps the mapping its failed write left it.
	slices.SortFunc(cands, func(x, y candidate) int {
		if x.gen != y.gen {
			return cmp.Compare(y.gen, x.gen)
		}
		return cmp.Compare(x.phys, y.phys)
	})
	b.index = make(map[ID]uint64, len(b.table))
	data := make([]byte, b.chunkSize)
	intact := func(phys uint64) (bool, error) {
		if err := b.dev.ReadAt(data, b.headerLBA(phys)+1); err != nil {
			return false, fmt.Errorf("cas: scan chunk %d: %w", phys, err)
		}
		return Sum(data) == ids[phys], nil
	}
	settled := make([]bool, b.slots)
	for _, c := range cands {
		id := ids[c.phys]
		if _, located := b.index[id]; located || settled[c.slot] {
			continue
		}
		ok, err := intact(c.phys)
		if err != nil {
			return err
		}
		if ok {
			b.table[c.slot], b.gens[c.slot] = id, c.gen
			b.index[id] = c.phys
			settled[c.slot] = true
		}
	}
	// Index the IDs mapped by a table entry that no verified claim located.
	for _, id := range b.table {
		if _, done := b.index[id]; done || id.IsZero() {
			continue
		}
		at, ok := first[id]
		if !ok {
			continue // not on the device: reads of its slots fail ErrNoChunk
		}
		b.index[id] = at
		for _, phys := range contested[id] {
			ok, err := intact(phys)
			if err != nil {
				return err
			}
			if ok {
				b.index[id] = phys
				break
			}
		}
	}
	owned := make([]bool, b.physSlots)
	for _, phys := range b.index {
		owned[phys] = true
	}
	b.free = b.free[:0]
	for phys, own := range owned {
		if !own {
			b.free = append(b.free, uint64(phys))
		}
	}
	return nil
}

func (b *BlockBackend) headerLBA(physSlot uint64) uint64 {
	return b.dataStart + physSlot*b.perSlot
}

// PutChunk writes the chunk's header, mapping slot to id under a new
// generation unless slot is NoSlot, and its data blocks in one device
// write; see the layout comment for why a torn one is safe. A chunk already
// stored is written again to a fresh chunk slot under the header it had,
// mapping claim included, and its old slot freed: the repair of rotten
// bytes. slot is then mapped through the slot table.
func (b *BlockBackend) PutChunk(slot uint64, id ID, data []byte) error {
	if len(data) != b.chunkSize {
		return fmt.Errorf("cas: put of %d bytes, chunk size %d", len(data), b.chunkSize)
	}
	if slot != NoSlot && slot >= b.slots {
		return slotRange(slot, b.slots)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.free) == 0 {
		return ErrFull
	}
	b.written()
	old, stored := b.index[id]
	c := claim{slot: NoSlot}
	switch {
	case stored:
		c = b.claims[old]
	case slot != NoSlot:
		b.gen++
		c = claim{slot, b.gen}
	}
	phys := b.free[len(b.free)-1]
	copy(b.putBuf[12:44], id[:])
	binary.LittleEndian.PutUint64(b.putBuf[44:52], c.slot)
	binary.LittleEndian.PutUint64(b.putBuf[52:60], c.gen)
	binary.LittleEndian.PutUint64(b.putBuf[60:68], b.epoch)
	copy(b.putBuf[b.bs:], data)
	if err := b.dev.WriteAt(b.putBuf, b.headerLBA(phys)); err != nil {
		return fmt.Errorf("cas: write chunk: %w", err)
	}
	b.free = b.free[:len(b.free)-1]
	b.index[id] = phys
	b.claims[phys] = c
	switch {
	case stored:
		b.free = append(b.free, old)
		if slot != NoSlot {
			return b.setMapping(slot, id)
		}
	case slot != NoSlot:
		b.table[slot], b.gens[slot] = id, c.gen
	}
	return nil
}

// written allocates what a fresh format left unallocated (see the gens
// field); every write calls it first.
func (b *BlockBackend) written() {
	if b.gens == nil {
		b.gens = make([]uint64, b.slots)
		b.claims = make([]claim, b.physSlots)
	}
}

// GetChunk reads a chunk's data blocks into dst.
func (b *BlockBackend) GetChunk(id ID, dst []byte) error {
	if len(dst) != b.chunkSize {
		return fmt.Errorf("cas: get of %d bytes, chunk size %d", len(dst), b.chunkSize)
	}
	b.mu.Lock()
	phys, ok := b.index[id]
	b.mu.Unlock()
	if !ok {
		return ErrNoChunk
	}
	if err := b.dev.ReadAt(dst, b.headerLBA(phys)+1); err != nil {
		return fmt.Errorf("cas: read chunk data: %w", err)
	}
	return nil
}

// DeleteChunk frees a chunk's slot. It writes nothing: the header stays, a
// stale claim, until a put reuses the slot.
func (b *BlockBackend) DeleteChunk(id ID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if phys, ok := b.index[id]; ok {
		delete(b.index, id)
		b.free = append(b.free, phys)
	}
	return nil
}

// Chunks lists every indexed chunk ID.
func (b *BlockBackend) Chunks() []ID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ID, 0, len(b.index))
	for id := range b.index {
		out = append(out, id)
	}
	return out
}

// SetMapping rewrites the map block holding slot's entry under a new
// generation, composed from the in-memory mappings: one device write, no
// read.
func (b *BlockBackend) SetMapping(slot uint64, id ID) error {
	if slot >= b.slots {
		return slotRange(slot, b.slots)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.setMapping(slot, id)
}

func (b *BlockBackend) setMapping(slot uint64, id ID) error {
	b.written()
	b.gen++
	perBlock := uint64(b.bs / mapEntryBytes)
	first := slot - slot%perBlock
	clear(b.mapBuf)
	for s := first; s < first+perBlock && s < b.slots; s++ {
		e, gen := b.table[s], b.gens[s]
		if s == slot {
			e, gen = id, b.gen
		}
		off := (s - first) * mapEntryBytes
		copy(b.mapBuf[off:], e[:])
		binary.LittleEndian.PutUint64(b.mapBuf[off+32:], gen)
	}
	if err := b.dev.WriteAt(b.mapBuf, 1+first/perBlock); err != nil {
		return fmt.Errorf("cas: write map block: %w", err)
	}
	b.table[slot], b.gens[slot] = id, b.gen
	return nil
}

// Mappings returns a copy of the slot table.
func (b *BlockBackend) Mappings() ([]ID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]ID(nil), b.table...), nil
}

// readTable reads the full slot table off the device: each slot's ID and
// generation.
func (b *BlockBackend) readTable() ([]ID, []uint64, error) {
	ids, gens := make([]ID, b.slots), make([]uint64, b.slots)
	blk := make([]byte, b.bs)
	var cur uint64 // lba currently held in blk, 0 = none
	for slot := uint64(0); slot < b.slots; slot++ {
		off := slot * mapEntryBytes
		lba := 1 + off/uint64(b.bs)
		if lba != cur {
			if err := b.dev.ReadAt(blk, lba); err != nil {
				return nil, nil, fmt.Errorf("cas: read map block: %w", err)
			}
			cur = lba
		}
		e := blk[off%uint64(b.bs):]
		ids[slot], gens[slot] = ID(e[:32]), binary.LittleEndian.Uint64(e[32:40])
	}
	return ids, gens, nil
}

// CorruptChunk inverts a chunk's stored data blocks without touching its
// header — fault injection for scrub drills.
func (b *BlockBackend) CorruptChunk(id ID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	phys, ok := b.index[id]
	if !ok {
		return ErrNoChunk
	}
	data := make([]byte, b.chunkSize)
	if err := b.dev.ReadAt(data, b.headerLBA(phys)+1); err != nil {
		return err
	}
	return b.dev.WriteAt(flipped(data), b.headerLBA(phys)+1)
}

// Close flushes and closes the device.
func (b *BlockBackend) Close() error {
	if err := b.dev.Flush(); err != nil {
		_ = b.dev.Close()
		return err
	}
	return b.dev.Close()
}

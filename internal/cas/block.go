package cas

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/blockdev"
)

// On-device layout of a block-backed CAS replica, in units of the device's
// block size bs:
//
//	lba 0                     superblock: magic, chunkSize, slots, physSlots
//	lba 1 .. mapBlocks        slot table: one 64-byte entry per logical slot
//	                          (chunk ID at [0:32], zero = unmapped)
//	then physSlots ×          chunk slots: 1 header block (magic, length,
//	  (1 + chunkSize/bs)      chunk ID) followed by the chunk's data blocks
//
// The slot table is the only fact on the device. A chunk header is a claim:
// its slot may hold the chunk with that ID, or may not. What each operation
// promises:
//
//   - format zeroes the slot table, then writes the superblock, so a crash
//     mid-format leaves an unformatted device. It leaves the headers a
//     previous life wrote: with nothing mapped, each is an orphan claim.
//   - PutChunk writes a free slot's header and data blocks as one device
//     write. A crash can tear it: any subset of the blocks may land,
//     including a header over partial data or a stale header over new data.
//     A put whose write fails leaves its slot free and its claim behind.
//   - DeleteChunk writes nothing. The slot goes back on the free list and
//     its header stays, a stale claim, until a put reuses the slot.
//   - scan keeps, per ID, the first claim whose data blocks hash to the ID,
//     or the first claim when none does. It reads chunk data only for an ID
//     that more than one slot claims. cas.Open then frees, in memory, every
//     indexed ID that no slot maps: an orphan.
//
// Every crash image opens safely because a mapped ID always has an intact
// claim. Store.WriteID maps an ID only after its put has returned, and a
// chunk's slot stays off the free list, so no put overwrites it, until the
// write that unmaps the ID has landed. So a mapped ID claimed once holds
// intact bytes, a mapped ID claimed several times wins arbitration with
// intact bytes, and a torn or stale claim of an unmapped ID is an orphan,
// freed before any write can map it. The one caller that puts under a live
// mapping, Store.Repair, rewrites the chunk's own slot; torn, it leaves the
// slot unreadable (Store.Read verifies Sum(data) == id) until it is repaired
// again, never readable with wrong bytes.
//
// The slot table is written one block per SetMapping, composed from the
// in-memory copy of the table, so a mapping flip is atomic at block
// granularity. TestCrashPrefixes replays every prefix and tear of a recorded
// write log, from a format over a dirty device on, against these claims.
const (
	blockMagic    = "STORMCAS"
	chunkMagic    = "CASCHUNK"
	mapEntryBytes = 64
	formatRun     = 1 << 20 // bytes of slot table per format write, at most
)

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
	index     map[ID]uint64
	free      []uint64
	// table is the slot table as the device holds it: read once at open,
	// updated after each map-block write succeeds. SetMapping composes a
	// block's entries from it, which saves reading the block back.
	table []ID
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

// OpenBlockBackend opens (or formats) a block-backed replica on dev. A
// device whose superblock is absent or unreadable is formatted fresh; an
// existing superblock must match the requested geometry, and its chunk
// headers are scanned as claims (see the layout comment) to rebuild the ID
// index and free list, which is what makes the backend crash-recoverable.
func OpenBlockBackend(dev blockdev.Device, chunkSize int, slots uint64) (*BlockBackend, error) {
	bs := dev.BlockSize()
	if chunkSize <= 0 || chunkSize%bs != 0 {
		return nil, fmt.Errorf("cas: chunk size %d not a multiple of device block size %d", chunkSize, bs)
	}
	if bs%mapEntryBytes != 0 {
		return nil, fmt.Errorf("cas: device block size %d not a multiple of the %d-byte map entry", bs, mapEntryBytes)
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
	if string(sb[:8]) == blockMagic {
		gotChunk := binary.LittleEndian.Uint32(sb[8:12])
		gotSlots := binary.LittleEndian.Uint64(sb[12:20])
		gotPhys := binary.LittleEndian.Uint64(sb[20:28])
		if int(gotChunk) != chunkSize || gotSlots != slots || gotPhys != b.physSlots {
			return nil, fmt.Errorf("%w: device formatted chunk=%d slots=%d phys=%d, want chunk=%d slots=%d phys=%d",
				ErrGeometry, gotChunk, gotSlots, gotPhys, chunkSize, slots, b.physSlots)
		}
		var err error
		if b.table, err = b.readTable(); err != nil {
			return nil, err
		}
		if err := b.scan(); err != nil {
			return nil, err
		}
		return b, nil
	}
	if err := b.format(); err != nil {
		return nil, err
	}
	// format has just zeroed the slot table, so every header on the device
	// is an orphan claim and the state is known without reading: no mapping,
	// no chunk, every slot free in ascending order (the allocation order is
	// part of the layout: see TestBlockLayoutUnchanged).
	b.table = make([]ID, slots)
	b.index = make(map[ID]uint64)
	b.free = make([]uint64, b.physSlots)
	for slot := range b.free {
		b.free[slot] = uint64(slot)
	}
	return b, nil
}

// format zeroes the slot table in runs of at most formatRun bytes and
// writes the superblock last, so a crash mid-format leaves an unformatted
// device. Chunk headers stay as they are: see the layout comment.
func (b *BlockBackend) format() error {
	per := max(1, min(b.mapBlocks, formatRun/uint64(b.bs)))
	run := make([]byte, per*uint64(b.bs))
	for lba := uint64(1); lba < b.dataStart; lba += per {
		n := min(per, b.dataStart-lba)
		if err := b.dev.WriteAt(run[:n*uint64(b.bs)], lba); err != nil {
			return fmt.Errorf("cas: format slot table at block %d: %w", lba, err)
		}
	}
	sb := make([]byte, b.bs)
	copy(sb, blockMagic)
	binary.LittleEndian.PutUint32(sb[8:12], uint32(b.chunkSize))
	binary.LittleEndian.PutUint64(sb[12:20], b.slots)
	binary.LittleEndian.PutUint64(sb[20:28], b.physSlots)
	if err := b.dev.WriteAt(sb, 0); err != nil {
		return fmt.Errorf("cas: write superblock: %w", err)
	}
	return b.dev.Flush()
}

// scan rebuilds the ID→slot index and free list from the chunk headers,
// arbitrating claims as the layout comment describes.
func (b *BlockBackend) scan() error {
	b.index = make(map[ID]uint64, b.physSlots) // stale claims too, until cas.Open frees them
	contested := make(map[ID][]uint64)         // every claim of an ID claimed twice
	hdr := make([]byte, b.bs)
	for slot := uint64(0); slot < b.physSlots; slot++ {
		if err := b.dev.ReadAt(hdr, b.headerLBA(slot)); err != nil {
			return fmt.Errorf("cas: scan header %d: %w", slot, err)
		}
		if string(hdr[:8]) != chunkMagic {
			continue
		}
		var id ID
		copy(id[:], hdr[12:44])
		if first, dup := b.index[id]; !dup {
			b.index[id] = slot
		} else if claims, ok := contested[id]; ok {
			contested[id] = append(claims, slot)
		} else {
			contested[id] = []uint64{first, slot}
		}
	}
	data := make([]byte, b.chunkSize)
	for id, claims := range contested {
		for _, slot := range claims {
			if err := b.dev.ReadAt(data, b.headerLBA(slot)+1); err != nil {
				return fmt.Errorf("cas: scan chunk %d: %w", slot, err)
			}
			if Sum(data) == id {
				b.index[id] = slot
				break
			}
		}
	}
	owned := make([]bool, b.physSlots)
	for _, slot := range b.index {
		owned[slot] = true
	}
	b.free = b.free[:0]
	for slot, own := range owned {
		if !own {
			b.free = append(b.free, uint64(slot))
		}
	}
	return nil
}

func (b *BlockBackend) headerLBA(physSlot uint64) uint64 {
	return b.dataStart + physSlot*b.perSlot
}

// PutChunk writes the chunk's header and data blocks in one device write;
// see the layout comment for why a torn one is safe.
func (b *BlockBackend) PutChunk(id ID, data []byte) error {
	if len(data) != b.chunkSize {
		return fmt.Errorf("cas: put of %d bytes, chunk size %d", len(data), b.chunkSize)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.index[id]; ok {
		return nil
	}
	if len(b.free) == 0 {
		return ErrFull
	}
	slot := b.free[len(b.free)-1]
	copy(b.putBuf[12:44], id[:])
	copy(b.putBuf[b.bs:], data)
	if err := b.dev.WriteAt(b.putBuf, b.headerLBA(slot)); err != nil {
		return fmt.Errorf("cas: write chunk: %w", err)
	}
	b.free = b.free[:len(b.free)-1]
	b.index[id] = slot
	return nil
}

// GetChunk reads a chunk's data blocks.
func (b *BlockBackend) GetChunk(id ID) ([]byte, error) {
	b.mu.Lock()
	slot, ok := b.index[id]
	b.mu.Unlock()
	if !ok {
		return nil, ErrNoChunk
	}
	data := make([]byte, b.chunkSize)
	if err := b.dev.ReadAt(data, b.headerLBA(slot)+1); err != nil {
		return nil, fmt.Errorf("cas: read chunk data: %w", err)
	}
	return data, nil
}

// DeleteChunk frees a chunk's slot. It writes nothing: the header stays, a
// stale claim, until a put reuses the slot.
func (b *BlockBackend) DeleteChunk(id ID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if slot, ok := b.index[id]; ok {
		delete(b.index, id)
		b.free = append(b.free, slot)
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

// SetMapping rewrites the map block holding slot's entry, composed from the
// in-memory table: one device write, no read.
func (b *BlockBackend) SetMapping(slot uint64, id ID) error {
	if slot >= b.slots {
		return fmt.Errorf("cas: mapping slot %d out of range (%d)", slot, b.slots)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	perBlock := uint64(b.bs / mapEntryBytes)
	first := slot - slot%perBlock
	clear(b.mapBuf)
	for s := first; s < first+perBlock && s < b.slots; s++ {
		entry := b.table[s]
		if s == slot {
			entry = id
		}
		copy(b.mapBuf[(s-first)*mapEntryBytes:], entry[:])
	}
	if err := b.dev.WriteAt(b.mapBuf, 1+first/perBlock); err != nil {
		return fmt.Errorf("cas: write map block: %w", err)
	}
	b.table[slot] = id
	return nil
}

// Mappings returns a copy of the slot table.
func (b *BlockBackend) Mappings() ([]ID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]ID(nil), b.table...), nil
}

// readTable reads the full slot table off the device.
func (b *BlockBackend) readTable() ([]ID, error) {
	out := make([]ID, b.slots)
	blk := make([]byte, b.bs)
	var cur uint64 // lba currently held in blk, 0 = none
	for slot := uint64(0); slot < b.slots; slot++ {
		off := slot * mapEntryBytes
		lba := 1 + off/uint64(b.bs)
		if lba != cur {
			if err := b.dev.ReadAt(blk, lba); err != nil {
				return nil, fmt.Errorf("cas: read map block: %w", err)
			}
			cur = lba
		}
		copy(out[slot][:], blk[off%uint64(b.bs):off%uint64(b.bs)+32])
	}
	return out, nil
}

// CorruptChunk inverts a chunk's stored data blocks without touching its
// header — fault injection for scrub drills.
func (b *BlockBackend) CorruptChunk(id ID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	slot, ok := b.index[id]
	if !ok {
		return ErrNoChunk
	}
	data := make([]byte, b.chunkSize)
	if err := b.dev.ReadAt(data, b.headerLBA(slot)+1); err != nil {
		return err
	}
	return b.dev.WriteAt(flipped(data), b.headerLBA(slot)+1)
}

// Close flushes and closes the device.
func (b *BlockBackend) Close() error {
	if err := b.dev.Flush(); err != nil {
		_ = b.dev.Close()
		return err
	}
	return b.dev.Close()
}

// Package blockdev defines the block device abstraction the storage stack is
// built on: an addressable array of fixed-size logical blocks. It provides an
// in-memory sparse implementation, a service-time-modelling wrapper used by
// the simulated storage hosts, and a fault-injecting wrapper used by the
// reliability experiments.
package blockdev

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Common block device errors.
var (
	ErrOutOfRange = errors.New("blockdev: access beyond device capacity")
	ErrClosed     = errors.New("blockdev: device is closed")
	ErrBadLength  = errors.New("blockdev: buffer length is not a block multiple")
)

// Device is a random-access block device. Implementations must be safe for
// concurrent use.
type Device interface {
	// BlockSize returns the logical block size in bytes.
	BlockSize() int
	// Blocks returns the device capacity in logical blocks.
	Blocks() uint64
	// ReadAt reads len(p) bytes starting at logical block lba. len(p) must
	// be a multiple of the block size.
	ReadAt(p []byte, lba uint64) error
	// WriteAt writes len(p) bytes starting at logical block lba. len(p)
	// must be a multiple of the block size. Implementations must not
	// retain p after WriteAt returns: callers (the target's staging path,
	// the write-back relay) hand in pooled buffers they recycle as soon as
	// the call completes, so a deferred consumer must copy first — the
	// write-back device copies into its own staging buffer at admission
	// for exactly this reason.
	WriteAt(p []byte, lba uint64) error
	// Flush persists outstanding writes.
	Flush() error
	// Close releases the device. Subsequent operations fail with ErrClosed.
	Close() error
}

// extentSize is the granule MemDisk allocates and indexes its backing by.
// It is independent of the block size: a command touches one map entry and
// one copy per extent it overlaps, not per block.
const extentSize = 64 << 10

// MemDisk is an in-memory sparse block device. Unwritten ranges read as
// zeros; storage is allocated lazily in 64 KiB extents (the device's tail
// extent is cut to the capacity), so large thin volumes cost memory only
// where they have been written, at extent granularity.
type MemDisk struct {
	mu        sync.RWMutex
	blockSize int
	blocks    uint64
	extents   map[uint64][]byte // extent index -> extentSize bytes, less for the tail
	closed    bool
}

var _ Device = (*MemDisk)(nil)

// NewMemDisk creates a sparse in-memory device of the given geometry.
func NewMemDisk(blockSize int, blocks uint64) (*MemDisk, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("blockdev: invalid block size %d", blockSize)
	}
	if blocks == 0 {
		return nil, errors.New("blockdev: device must have at least one block")
	}
	if hi, _ := bits.Mul64(blocks, uint64(blockSize)); hi != 0 {
		return nil, fmt.Errorf("blockdev: %d blocks of %d bytes overflow the byte address space", blocks, blockSize)
	}
	return &MemDisk{
		blockSize: blockSize,
		blocks:    blocks,
		extents:   make(map[uint64][]byte),
	}, nil
}

// BlockSize returns the logical block size in bytes.
func (d *MemDisk) BlockSize() int { return d.blockSize }

// Blocks returns the capacity in logical blocks.
func (d *MemDisk) Blocks() uint64 { return d.blocks }

// ReadAt implements Device.
func (d *MemDisk) ReadAt(p []byte, lba uint64) error {
	if err := d.checkRange(len(p), lba); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	for off := lba * uint64(d.blockSize); len(p) > 0; {
		in := off % extentSize
		n := min(uint64(len(p)), extentSize-in)
		if ext, ok := d.extents[off/extentSize]; ok {
			copy(p[:n], ext[in:])
		} else {
			clear(p[:n])
		}
		p, off = p[n:], off+n
	}
	return nil
}

// WriteAt implements Device.
func (d *MemDisk) WriteAt(p []byte, lba uint64) error {
	if err := d.checkRange(len(p), lba); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	for off := lba * uint64(d.blockSize); len(p) > 0; {
		idx, in := off/extentSize, off%extentSize
		ext, ok := d.extents[idx]
		if !ok {
			ext = make([]byte, min(extentSize, d.blocks*uint64(d.blockSize)-idx*extentSize))
			d.extents[idx] = ext
		}
		n := copy(ext[in:], p)
		p, off = p[n:], off+uint64(n)
	}
	return nil
}

// Flush implements Device. MemDisk writes are immediately durable.
func (d *MemDisk) Flush() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Device.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.extents = nil
	return nil
}

// AllocatedBlocks returns the number of blocks backed by real storage,
// exposing the thin-provisioning behaviour for tests and capacity reporting.
// Backing is extent-granular: one written block pins its whole extent.
func (d *MemDisk) AllocatedBlocks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	bytes := 0
	for _, ext := range d.extents {
		bytes += len(ext)
	}
	return bytes / d.blockSize
}

// Clone returns a point-in-time copy of the device (same geometry, deep
// copy of allocated extents) — the substrate for volume snapshots.
func (d *MemDisk) Clone() (*MemDisk, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	cp := &MemDisk{
		blockSize: d.blockSize,
		blocks:    d.blocks,
		extents:   make(map[uint64][]byte, len(d.extents)),
	}
	for idx, ext := range d.extents {
		cp.extents[idx] = append([]byte(nil), ext...)
	}
	return cp, nil
}

func (d *MemDisk) checkRange(byteLen int, lba uint64) error {
	if byteLen == 0 || byteLen%d.blockSize != 0 {
		return fmt.Errorf("%w: %d bytes with block size %d", ErrBadLength, byteLen, d.blockSize)
	}
	n := uint64(byteLen / d.blockSize)
	if lba >= d.blocks || n > d.blocks-lba {
		return fmt.Errorf("%w: lba=%d blocks=%d capacity=%d", ErrOutOfRange, lba, n, d.blocks)
	}
	return nil
}

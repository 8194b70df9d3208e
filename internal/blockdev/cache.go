package blockdev

import (
	"sync"

	"repro/internal/obs"
)

// CacheDisk is a write-through block cache over a Device — the analogue of
// the guest's page cache sitting above the virtual disk. Reads served from
// the cache skip the backing device entirely; writes update the cache and
// propagate through. Capacity is bounded; eviction is FIFO.
type CacheDisk struct {
	dev Device

	mu      sync.Mutex
	blocks  map[uint64][]byte
	order   []uint64
	maxBlks int

	obsHits   *obs.Counter
	obsMisses *obs.Counter
}

var _ Device = (*CacheDisk)(nil)

// NewCacheDisk wraps dev with a cache of at most capacityBytes.
func NewCacheDisk(dev Device, capacityBytes int) *CacheDisk {
	maxBlks := capacityBytes / dev.BlockSize()
	if maxBlks < 1 {
		maxBlks = 1
	}
	return &CacheDisk{
		dev:       dev,
		blocks:    make(map[uint64][]byte),
		maxBlks:   maxBlks,
		obsHits:   obs.Default().Counter("blockcache.hits"),
		obsMisses: obs.Default().Counter("blockcache.misses"),
	}
}

// BlockSize implements Device.
func (d *CacheDisk) BlockSize() int { return d.dev.BlockSize() }

// Blocks implements Device.
func (d *CacheDisk) Blocks() uint64 { return d.dev.Blocks() }

// ReadAt implements Device: fully-cached extents are served locally; any
// miss fetches the whole extent and populates the cache.
func (d *CacheDisk) ReadAt(p []byte, lba uint64) error {
	bs := d.dev.BlockSize()
	if len(p) == 0 || len(p)%bs != 0 {
		return ErrBadLength
	}
	n := uint64(len(p) / bs)
	d.mu.Lock()
	allCached := true
	for i := uint64(0); i < n; i++ {
		if _, ok := d.blocks[lba+i]; !ok {
			allCached = false
			break
		}
	}
	if allCached {
		for i := uint64(0); i < n; i++ {
			copy(p[int(i)*bs:int(i+1)*bs], d.blocks[lba+i])
		}
		d.mu.Unlock()
		d.obsHits.Add(int64(n))
		return nil
	}
	d.mu.Unlock()
	d.obsMisses.Add(int64(n))

	if err := d.dev.ReadAt(p, lba); err != nil {
		return err
	}
	d.mu.Lock()
	for i := uint64(0); i < n; i++ {
		d.insertLocked(lba+i, p[int(i)*bs:int(i+1)*bs])
	}
	d.mu.Unlock()
	return nil
}

// WriteAt implements Device: write-through with cache update.
func (d *CacheDisk) WriteAt(p []byte, lba uint64) error {
	bs := d.dev.BlockSize()
	if len(p) == 0 || len(p)%bs != 0 {
		return ErrBadLength
	}
	if err := d.dev.WriteAt(p, lba); err != nil {
		return err
	}
	n := uint64(len(p) / bs)
	d.mu.Lock()
	for i := uint64(0); i < n; i++ {
		d.insertLocked(lba+i, p[int(i)*bs:int(i+1)*bs])
	}
	d.mu.Unlock()
	return nil
}

// insertLocked stores one block, evicting FIFO when full.
func (d *CacheDisk) insertLocked(blk uint64, data []byte) {
	if existing, ok := d.blocks[blk]; ok {
		copy(existing, data)
		return
	}
	for len(d.blocks) >= d.maxBlks && len(d.order) > 0 {
		victim := d.order[0]
		d.order = d.order[1:]
		delete(d.blocks, victim)
	}
	d.blocks[blk] = append([]byte(nil), data...)
	d.order = append(d.order, blk)
}

// Flush implements Device.
func (d *CacheDisk) Flush() error { return d.dev.Flush() }

// Close implements Device.
func (d *CacheDisk) Close() error {
	d.mu.Lock()
	d.blocks = nil
	d.order = nil
	d.mu.Unlock()
	return d.dev.Close()
}

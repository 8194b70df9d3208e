package extfs

import (
	"fmt"
	"sync"

	"repro/internal/blockdev"
)

// Options configures Mkfs.
type Options struct {
	// BlockSize is the fs block size (default 4096; must be a multiple of
	// the device block size).
	BlockSize int
	// BlocksPerGroup sets group extent (default BlockSize*8, so one
	// bitmap block covers the group).
	BlocksPerGroup int
}

// inodesPerGroup is every group's inode density.
const inodesPerGroup = 1024

// FS is a mounted extfs instance. All operations are serialized by one
// mutex (a single-VM file system, as in the tenant VM).
type FS struct {
	mu   sync.Mutex
	dev  blockdev.Device
	sb   Superblock
	geom []GroupLayout
	// clock is the logical operation counter used for timestamps.
	clock uint64
	// sectorsPerBlock caches the device-to-fs block ratio.
	sectorsPerBlock int
}

// Mkfs formats the device and returns the mounted file system.
func Mkfs(dev blockdev.Device, opts Options) (*FS, error) {
	if opts.BlockSize == 0 {
		opts.BlockSize = 4096
	}
	if opts.BlocksPerGroup == 0 {
		opts.BlocksPerGroup = opts.BlockSize * 8
	}
	if opts.BlockSize%dev.BlockSize() != 0 {
		return nil, fmt.Errorf("extfs: block size %d is not a multiple of device block size %d",
			opts.BlockSize, dev.BlockSize())
	}
	if opts.BlocksPerGroup > opts.BlockSize*8 {
		return nil, fmt.Errorf("extfs: %d blocks per group exceeds one bitmap block (%d bits)",
			opts.BlocksPerGroup, opts.BlockSize*8)
	}
	if inodesPerGroup > opts.BlockSize*8 {
		return nil, fmt.Errorf("extfs: %d inodes per group exceeds one bitmap block", inodesPerGroup)
	}
	devBlocks := dev.Blocks() * uint64(dev.BlockSize())
	fsBlocks := devBlocks / uint64(opts.BlockSize)
	if fsBlocks < 16 {
		return nil, fmt.Errorf("extfs: device too small (%d fs blocks)", fsBlocks)
	}
	groups := uint32((fsBlocks - 1 + uint64(opts.BlocksPerGroup) - 1) / uint64(opts.BlocksPerGroup))
	fs := &FS{
		dev: dev,
		sb: Superblock{
			Magic:          Magic,
			BlockSize:      uint32(opts.BlockSize),
			BlocksCount:    fsBlocks,
			InodesCount:    groups * uint32(inodesPerGroup),
			BlocksPerGroup: uint32(opts.BlocksPerGroup),
			InodesPerGroup: uint32(inodesPerGroup),
			GroupCount:     groups,
		},
		sectorsPerBlock: opts.BlockSize / dev.BlockSize(),
	}
	fs.geom = fs.sb.Geometry()

	// Zero all group metadata blocks (bitmaps and inode tables).
	zero := make([]byte, opts.BlockSize)
	for i := range fs.geom {
		g := &fs.geom[i]
		for blk := g.BlockBitmap; blk < g.DataStart; blk++ {
			if err := fs.writeBlock(blk, zero); err != nil {
				return nil, err
			}
		}
		fs.sb.FreeBlocks += uint64(g.dataBlocks())
	}
	fs.sb.FreeInodes = fs.sb.InodesCount

	// Reserve inodes 1 (bad blocks) and 2 (root).
	for _, ino := range []uint32{BadBlocksIno, RootIno} {
		if err := fs.setInodeBitmap(ino, true); err != nil {
			return nil, err
		}
		fs.sb.FreeInodes--
	}

	// Create the root directory.
	rootBlk, err := fs.allocBlock()
	if err != nil {
		return nil, err
	}
	root := Inode{Type: TypeDir, Links: 2, Size: uint64(opts.BlockSize)}
	root.Direct[0] = rootBlk
	dirBlk := make([]byte, opts.BlockSize)
	initDirBlock(dirBlk, RootIno, RootIno)
	if err := fs.writeBlock(rootBlk, dirBlk); err != nil {
		return nil, err
	}
	if err := fs.writeInode(RootIno, &root); err != nil {
		return nil, err
	}
	if err := fs.writeSuper(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount opens an already-formatted device.
func Mount(dev blockdev.Device) (*FS, error) {
	probe := make([]byte, dev.BlockSize())
	if err := dev.ReadAt(probe, 0); err != nil {
		return nil, err
	}
	var sb Superblock
	if err := sb.decode(probe); err != nil {
		return nil, err
	}
	if sb.BlockSize == 0 || sb.BlockSize%uint32(dev.BlockSize()) != 0 {
		return nil, ErrNotFormatted
	}
	fs := &FS{
		dev:             dev,
		sb:              sb,
		sectorsPerBlock: int(sb.BlockSize) / dev.BlockSize(),
	}
	fs.geom = fs.sb.Geometry()
	return fs, nil
}

// tick advances the logical clock.
func (fs *FS) tick() uint64 {
	fs.clock++
	return fs.clock
}

// readBlock reads one fs block.
func (fs *FS) readBlock(blk uint64) ([]byte, error) {
	buf := make([]byte, fs.sb.BlockSize)
	if err := fs.dev.ReadAt(buf, blk*uint64(fs.sectorsPerBlock)); err != nil {
		return nil, fmt.Errorf("extfs: read fs block %d: %w", blk, err)
	}
	return buf, nil
}

// writeBlock writes one fs block.
func (fs *FS) writeBlock(blk uint64, data []byte) error {
	if len(data) != int(fs.sb.BlockSize) {
		return fmt.Errorf("extfs: write fs block %d: bad buffer length %d", blk, len(data))
	}
	if err := fs.dev.WriteAt(data, blk*uint64(fs.sectorsPerBlock)); err != nil {
		return fmt.Errorf("extfs: write fs block %d: %w", blk, err)
	}
	return nil
}

// writeSuper persists the superblock.
func (fs *FS) writeSuper() error {
	buf := make([]byte, fs.sb.BlockSize)
	fs.sb.encode(buf)
	return fs.writeBlock(0, buf)
}

// --- bitmap and allocation helpers ---

// bitmapOp reads a bitmap block, applies fn to bit idx, writing back when
// fn reports a change.
func (fs *FS) bitmapOp(blk uint64, idx uint32, fn func(buf []byte, byteOff int, mask byte) bool) error {
	buf, err := fs.readBlock(blk)
	if err != nil {
		return err
	}
	byteOff := int(idx / 8)
	mask := byte(1) << (idx % 8)
	if fn(buf, byteOff, mask) {
		return fs.writeBlock(blk, buf)
	}
	return nil
}

// setInodeBitmap marks inode ino used or free.
func (fs *FS) setInodeBitmap(ino uint32, used bool) error {
	g, idx := fs.inodeGroup(ino)
	return fs.bitmapOp(fs.geom[g].InodeBitmap, idx, func(buf []byte, off int, mask byte) bool {
		if used {
			buf[off] |= mask
		} else {
			buf[off] &^= mask
		}
		return true
	})
}

// inodeGroup maps an inode number to (group, index within group).
func (fs *FS) inodeGroup(ino uint32) (uint32, uint32) {
	i := ino - 1 // inode numbers are 1-based
	return i / fs.sb.InodesPerGroup, i % fs.sb.InodesPerGroup
}

// allocInode finds and reserves a free inode.
func (fs *FS) allocInode() (uint32, error) {
	if fs.sb.FreeInodes == 0 {
		return 0, ErrNoSpace
	}
	for g := range fs.geom {
		buf, err := fs.readBlock(fs.geom[g].InodeBitmap)
		if err != nil {
			return 0, err
		}
		for i := uint32(0); i < fs.sb.InodesPerGroup; i++ {
			if buf[i/8]&(1<<(i%8)) == 0 {
				buf[i/8] |= 1 << (i % 8)
				if err := fs.writeBlock(fs.geom[g].InodeBitmap, buf); err != nil {
					return 0, err
				}
				fs.sb.FreeInodes--
				if err := fs.writeSuper(); err != nil {
					return 0, err
				}
				return uint32(g)*fs.sb.InodesPerGroup + i + 1, nil
			}
		}
	}
	return 0, ErrNoSpace
}

// freeInode releases an inode number.
func (fs *FS) freeInode(ino uint32) error {
	if err := fs.setInodeBitmap(ino, false); err != nil {
		return err
	}
	fs.sb.FreeInodes++
	return fs.writeSuper()
}

// allocBlock finds and reserves a free data block.
func (fs *FS) allocBlock() (uint64, error) {
	if fs.sb.FreeBlocks == 0 {
		return 0, ErrNoSpace
	}
	for g := range fs.geom {
		gl := &fs.geom[g]
		n := gl.dataBlocks()
		if n == 0 {
			continue
		}
		buf, err := fs.readBlock(gl.BlockBitmap)
		if err != nil {
			return 0, err
		}
		for i := uint32(0); i < n; i++ {
			if buf[i/8]&(1<<(i%8)) == 0 {
				buf[i/8] |= 1 << (i % 8)
				if err := fs.writeBlock(gl.BlockBitmap, buf); err != nil {
					return 0, err
				}
				fs.sb.FreeBlocks--
				if err := fs.writeSuper(); err != nil {
					return 0, err
				}
				return gl.DataStart + uint64(i), nil
			}
		}
	}
	return 0, ErrNoSpace
}

// allocZeroedBlock allocates a block and zeroes it on disk (for pointer
// and directory blocks).
func (fs *FS) allocZeroedBlock() (uint64, error) {
	blk, err := fs.allocBlock()
	if err != nil {
		return 0, err
	}
	if err := fs.writeBlock(blk, make([]byte, fs.sb.BlockSize)); err != nil {
		return 0, err
	}
	return blk, nil
}

// freeBlock releases a data block.
func (fs *FS) freeBlock(blk uint64) error {
	for g := range fs.geom {
		gl := &fs.geom[g]
		if blk < gl.DataStart || blk >= gl.BlockBitmap+uint64(gl.BlocksInGroup) {
			continue
		}
		idx := uint32(blk - gl.DataStart)
		if err := fs.bitmapOp(gl.BlockBitmap, idx, func(buf []byte, off int, mask byte) bool {
			buf[off] &^= mask
			return true
		}); err != nil {
			return err
		}
		fs.sb.FreeBlocks++
		return fs.writeSuper()
	}
	return fmt.Errorf("extfs: free of unmapped block %d", blk)
}

// --- inode table I/O ---

// inodeLocation returns the fs block and byte offset holding inode ino.
func (fs *FS) inodeLocation(ino uint32) (uint64, int) {
	g, idx := fs.inodeGroup(ino)
	perBlock := fs.sb.BlockSize / InodeSize
	blk := fs.geom[g].InodeTable + uint64(idx/perBlock)
	off := int(idx%perBlock) * InodeSize
	return blk, off
}

// readInode loads inode ino.
func (fs *FS) readInode(ino uint32) (*Inode, error) {
	if ino == 0 || ino > fs.sb.InodesCount {
		return nil, fmt.Errorf("extfs: invalid inode %d", ino)
	}
	blk, off := fs.inodeLocation(ino)
	buf, err := fs.readBlock(blk)
	if err != nil {
		return nil, err
	}
	var in Inode
	in.decode(buf[off : off+InodeSize])
	return &in, nil
}

// writeInode persists inode ino.
func (fs *FS) writeInode(ino uint32, in *Inode) error {
	blk, off := fs.inodeLocation(ino)
	buf, err := fs.readBlock(blk)
	if err != nil {
		return err
	}
	in.encode(buf[off : off+InodeSize])
	return fs.writeBlock(blk, buf)
}

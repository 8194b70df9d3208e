// Package extfs implements an ext2-style file system from scratch on top of
// a blockdev.Device: superblock, block groups with block/inode bitmaps and
// inode tables, directories as dentry blocks, and direct/indirect/double-
// indirect data addressing. The simulated tenant VM formats its attached
// iSCSI volume with extfs and performs file operations on it, generating
// exactly the metadata and data block traffic StorM's semantics
// reconstruction (Section III-C) interprets; Dump produces the initial
// high-level system view the platform supplies to middle-boxes.
//
// The on-disk layout is little-endian, mirroring the ext family.
package extfs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies an extfs superblock.
const Magic uint32 = 0x53746F72 // "Stor"

// Well-known inode numbers (ext convention: inode numbering is 1-based and
// the root directory is inode 2).
const (
	BadBlocksIno = 1
	RootIno      = 2
	firstFreeIno = 3
)

// InodeSize is the on-disk inode record size.
const InodeSize = 128

// File type codes stored in inodes and directory entries.
type FileType uint8

// File types.
const (
	TypeFree    FileType = 0
	TypeFile    FileType = 1
	TypeDir     FileType = 2
	TypeSymlink FileType = 3
)

// String renders the file type.
func (t FileType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "link"
	default:
		return "free"
	}
}

// Common file system errors.
var (
	ErrNotFormatted = errors.New("extfs: device holds no file system")
	ErrExists       = errors.New("extfs: file exists")
	ErrNotFound     = errors.New("extfs: no such file or directory")
	ErrNotDir       = errors.New("extfs: not a directory")
	ErrIsDir        = errors.New("extfs: is a directory")
	ErrNoSpace      = errors.New("extfs: no space left on device")
	ErrNameTooLong  = errors.New("extfs: file name too long")
	ErrFileTooBig   = errors.New("extfs: file exceeds maximum size")
)

// MaxNameLen bounds directory entry names.
const MaxNameLen = 255

// Superblock is the file system's root metadata (fs block 0).
type Superblock struct {
	Magic          uint32
	BlockSize      uint32 // fs block size in bytes
	BlocksCount    uint64 // total fs blocks
	InodesCount    uint32
	BlocksPerGroup uint32
	InodesPerGroup uint32
	GroupCount     uint32
	FreeBlocks     uint64
	FreeInodes     uint32
	// MountGen increments on every mount (used as a logical clock base).
	MountGen uint32
}

const superblockLen = 44

// encode serializes the superblock into b (at least superblockLen bytes).
func (sb *Superblock) encode(b []byte) {
	binary.LittleEndian.PutUint32(b[0:4], sb.Magic)
	binary.LittleEndian.PutUint32(b[4:8], sb.BlockSize)
	binary.LittleEndian.PutUint64(b[8:16], sb.BlocksCount)
	binary.LittleEndian.PutUint32(b[16:20], sb.InodesCount)
	binary.LittleEndian.PutUint32(b[20:24], sb.BlocksPerGroup)
	binary.LittleEndian.PutUint32(b[24:28], sb.InodesPerGroup)
	binary.LittleEndian.PutUint32(b[28:32], sb.GroupCount)
	binary.LittleEndian.PutUint64(b[32:40], sb.FreeBlocks)
	// FreeInodes and MountGen share the remaining 4+4... keep layout flat:
	binary.LittleEndian.PutUint32(b[40:44], sb.FreeInodes)
}

// decode parses a superblock.
func (sb *Superblock) decode(b []byte) error {
	if len(b) < superblockLen {
		return fmt.Errorf("extfs: superblock buffer too short (%d bytes)", len(b))
	}
	sb.Magic = binary.LittleEndian.Uint32(b[0:4])
	if sb.Magic != Magic {
		return ErrNotFormatted
	}
	sb.BlockSize = binary.LittleEndian.Uint32(b[4:8])
	sb.BlocksCount = binary.LittleEndian.Uint64(b[8:16])
	sb.InodesCount = binary.LittleEndian.Uint32(b[16:20])
	sb.BlocksPerGroup = binary.LittleEndian.Uint32(b[20:24])
	sb.InodesPerGroup = binary.LittleEndian.Uint32(b[24:28])
	sb.GroupCount = binary.LittleEndian.Uint32(b[28:32])
	sb.FreeBlocks = binary.LittleEndian.Uint64(b[32:40])
	sb.FreeInodes = binary.LittleEndian.Uint32(b[40:44])
	return nil
}

// GroupLayout locates one block group's metadata inside the fs block space.
// All positions are absolute fs block numbers.
type GroupLayout struct {
	Index         uint32
	BlockBitmap   uint64
	InodeBitmap   uint64
	InodeTable    uint64 // first inode-table block
	InodeBlocks   uint32 // inode-table length in blocks
	DataStart     uint64 // first data block
	BlocksInGroup uint32 // fs blocks covered by this group (incl. metadata)
}

// Geometry derives the full group layout from a superblock. The group
// metadata lives at the start of each group: [block bitmap][inode bitmap]
// [inode table][data...]. Group 0 starts at fs block 1 (after the
// superblock).
func (sb *Superblock) Geometry() []GroupLayout {
	inodeBlocks := (sb.InodesPerGroup*InodeSize + sb.BlockSize - 1) / sb.BlockSize
	groups := make([]GroupLayout, sb.GroupCount)
	next := uint64(1) // block 0 is the superblock
	remaining := sb.BlocksCount - 1
	for i := range groups {
		g := &groups[i]
		g.Index = uint32(i)
		g.BlockBitmap = next
		g.InodeBitmap = next + 1
		g.InodeTable = next + 2
		g.InodeBlocks = inodeBlocks
		g.DataStart = next + 2 + uint64(inodeBlocks)
		span := uint64(sb.BlocksPerGroup)
		if span > remaining {
			span = remaining
		}
		g.BlocksInGroup = uint32(span)
		next += span
		remaining -= span
	}
	return groups
}

// dataBlocksInGroup returns the number of allocatable data blocks in g.
func (g *GroupLayout) dataBlocks() uint32 {
	meta := uint32(g.DataStart - g.BlockBitmap)
	if g.BlocksInGroup <= meta {
		return 0
	}
	return g.BlocksInGroup - meta
}

// BlockClass classifies an fs block for the semantics layer.
type BlockClass int

// Block classes.
const (
	ClassSuperblock BlockClass = iota + 1
	ClassBlockBitmap
	ClassInodeBitmap
	ClassInodeTable
	ClassData
)

// String renders the class.
func (c BlockClass) String() string {
	switch c {
	case ClassSuperblock:
		return "superblock"
	case ClassBlockBitmap:
		return "block-bitmap"
	case ClassInodeBitmap:
		return "inode-bitmap"
	case ClassInodeTable:
		return "inode-table"
	case ClassData:
		return "data"
	default:
		return "class(?)"
	}
}

// Classify maps an fs block number to its class and owning group.
func (sb *Superblock) Classify(fsBlock uint64, geom []GroupLayout) (BlockClass, uint32) {
	if fsBlock == 0 {
		return ClassSuperblock, 0
	}
	for i := range geom {
		g := &geom[i]
		if fsBlock < g.BlockBitmap || fsBlock >= g.BlockBitmap+uint64(g.BlocksInGroup) {
			continue
		}
		switch {
		case fsBlock == g.BlockBitmap:
			return ClassBlockBitmap, g.Index
		case fsBlock == g.InodeBitmap:
			return ClassInodeBitmap, g.Index
		case fsBlock < g.DataStart:
			return ClassInodeTable, g.Index
		default:
			return ClassData, g.Index
		}
	}
	return ClassData, 0
}

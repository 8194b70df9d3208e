package extfs

import (
	"fmt"
)

// CheckReport summarizes a consistency check (the fsck analogue).
type CheckReport struct {
	// Files and Dirs count reachable inodes.
	Files int
	Dirs  int
	// UsedBlocks counts data and pointer blocks reachable from the tree.
	UsedBlocks uint64
	// Problems lists every inconsistency found.
	Problems []string
}

// Ok reports whether the file system is consistent.
func (r *CheckReport) Ok() bool { return len(r.Problems) == 0 }

// Check walks the directory tree and verifies the file system's core
// invariants:
//
//   - every reachable block is marked used in its group's block bitmap;
//   - no block is referenced by two files (or twice by one);
//   - every reachable inode is marked used in its inode bitmap;
//   - superblock free counts match the bitmaps;
//   - directory entries reference live inodes of the recorded type.
func (fs *FS) Check() (*CheckReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	r := &CheckReport{}
	seenBlocks := make(map[uint64]uint32) // block -> first owner ino
	seenInodes := make(map[uint32]bool)

	var walk func(path string, ino uint32) error
	walk = func(path string, ino uint32) error {
		if seenInodes[ino] {
			r.Problems = append(r.Problems, fmt.Sprintf("inode %d reachable twice (at %s)", ino, path))
			return nil
		}
		seenInodes[ino] = true
		in, err := fs.readInode(ino)
		if err != nil {
			return err
		}
		if used, err := fs.inodeMarked(ino); err != nil {
			return err
		} else if !used {
			r.Problems = append(r.Problems, fmt.Sprintf("inode %d (%s) not marked in inode bitmap", ino, path))
		}
		// Collect the inode's blocks, including indirect pointer blocks.
		blocks, err := fs.allBlocksOf(in)
		if err != nil {
			return err
		}
		for _, b := range blocks {
			if owner, dup := seenBlocks[b]; dup {
				r.Problems = append(r.Problems,
					fmt.Sprintf("block %d shared by inodes %d and %d", b, owner, ino))
				continue
			}
			seenBlocks[b] = ino
			if used, err := fs.blockMarked(b); err != nil {
				return err
			} else if !used {
				r.Problems = append(r.Problems,
					fmt.Sprintf("block %d of inode %d (%s) not marked in block bitmap", b, ino, path))
			}
		}
		switch in.Type {
		case TypeDir:
			r.Dirs++
			dataBlocks, err := fs.fileBlocks(in)
			if err != nil {
				return err
			}
			for _, blk := range dataBlocks {
				buf, err := fs.readBlock(blk)
				if err != nil {
					return err
				}
				// A corrupt record is a problem, not a failure: the entries
				// before it are still checked.
				var werr error
				if err := WalkDirBlock(buf, func(cino uint32, ctyp FileType, name []byte) bool {
					if isDotName(name) {
						return true
					}
					cpath := joinPath(path, string(name))
					child, err := fs.readInode(cino)
					if err != nil {
						werr = err
						return false
					}
					if child.Type == TypeFree {
						r.Problems = append(r.Problems,
							fmt.Sprintf("%s references freed inode %d", cpath, cino))
						return true
					}
					if child.Type != ctyp {
						r.Problems = append(r.Problems,
							fmt.Sprintf("%s: dirent type %v != inode type %v", cpath, ctyp, child.Type))
					}
					werr = walk(cpath, cino)
					return werr == nil
				}); err != nil {
					r.Problems = append(r.Problems, fmt.Sprintf("%s: corrupt dirent block %d: %v", path, blk, err))
				}
				if werr != nil {
					return werr
				}
			}
		case TypeFile, TypeSymlink:
			r.Files++
		default:
			r.Problems = append(r.Problems, fmt.Sprintf("%s: inode %d has invalid type %d", path, ino, in.Type))
		}
		return nil
	}
	if err := walk("/", RootIno); err != nil {
		return nil, err
	}
	r.UsedBlocks = uint64(len(seenBlocks))

	// Free counts: used inodes = reachable + reserved (bad blocks).
	usedBitmapBlocks, usedBitmapInodes, err := fs.countBitmaps()
	if err != nil {
		return nil, err
	}
	if usedBitmapBlocks != uint64(len(seenBlocks)) {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"block bitmap marks %d used, tree reaches %d (leak or corruption)",
			usedBitmapBlocks, len(seenBlocks)))
	}
	wantInodes := len(seenInodes) + 1 // + bad-blocks inode
	if int(usedBitmapInodes) != wantInodes {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"inode bitmap marks %d used, tree reaches %d (+1 reserved)",
			usedBitmapInodes, len(seenInodes)))
	}
	if fs.sb.FreeBlocks != fs.totalDataBlocks()-usedBitmapBlocks {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"superblock free blocks %d != bitmap-derived %d",
			fs.sb.FreeBlocks, fs.totalDataBlocks()-usedBitmapBlocks))
	}
	if fs.sb.FreeInodes != fs.sb.InodesCount-uint32(usedBitmapInodes) {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"superblock free inodes %d != bitmap-derived %d",
			fs.sb.FreeInodes, fs.sb.InodesCount-uint32(usedBitmapInodes)))
	}
	return r, nil
}

// allBlocksOf returns data plus indirect pointer blocks of an inode.
func (fs *FS) allBlocksOf(in *Inode) ([]uint64, error) {
	blocks, err := fs.fileBlocks(in)
	if err != nil {
		return nil, err
	}
	if in.Indirect != 0 {
		blocks = append(blocks, in.Indirect)
	}
	if in.DoubleIndirect != 0 {
		blocks = append(blocks, in.DoubleIndirect)
		buf, err := fs.readBlock(in.DoubleIndirect)
		if err != nil {
			return nil, err
		}
		n := int(fs.ptrsPerBlock())
		for i := 0; i < n; i++ {
			ptr := uint64(0)
			for b := 0; b < ptrSize; b++ {
				ptr |= uint64(buf[i*ptrSize+b]) << (8 * b)
			}
			if ptr != 0 {
				blocks = append(blocks, ptr)
			}
		}
	}
	return blocks, nil
}

// inodeMarked reports the inode bitmap bit.
func (fs *FS) inodeMarked(ino uint32) (bool, error) {
	g, idx := fs.inodeGroup(ino)
	buf, err := fs.readBlock(fs.geom[g].InodeBitmap)
	if err != nil {
		return false, err
	}
	return buf[idx/8]&(1<<(idx%8)) != 0, nil
}

// blockMarked reports the block bitmap bit for an absolute fs block.
func (fs *FS) blockMarked(blk uint64) (bool, error) {
	for g := range fs.geom {
		gl := &fs.geom[g]
		if blk < gl.DataStart || blk >= gl.BlockBitmap+uint64(gl.BlocksInGroup) {
			continue
		}
		idx := uint32(blk - gl.DataStart)
		buf, err := fs.readBlock(gl.BlockBitmap)
		if err != nil {
			return false, err
		}
		return buf[idx/8]&(1<<(idx%8)) != 0, nil
	}
	return false, fmt.Errorf("extfs: block %d outside any group's data area", blk)
}

// countBitmaps tallies used bits across all groups.
func (fs *FS) countBitmaps() (blocks uint64, inodes uint64, err error) {
	for g := range fs.geom {
		gl := &fs.geom[g]
		bbuf, err := fs.readBlock(gl.BlockBitmap)
		if err != nil {
			return 0, 0, err
		}
		n := gl.dataBlocks()
		for i := uint32(0); i < n; i++ {
			if bbuf[i/8]&(1<<(i%8)) != 0 {
				blocks++
			}
		}
		ibuf, err := fs.readBlock(gl.InodeBitmap)
		if err != nil {
			return 0, 0, err
		}
		for i := uint32(0); i < fs.sb.InodesPerGroup; i++ {
			if ibuf[i/8]&(1<<(i%8)) != 0 {
				inodes++
			}
		}
	}
	return blocks, inodes, nil
}

// totalDataBlocks sums allocatable blocks across groups.
func (fs *FS) totalDataBlocks() uint64 {
	var t uint64
	for g := range fs.geom {
		t += uint64(fs.geom[g].dataBlocks())
	}
	return t
}

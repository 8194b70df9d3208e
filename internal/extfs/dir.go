package extfs

import (
	"encoding/binary"
	"fmt"
)

// Directory entries use the ext2 record format: a block is fully covered by
// variable-length records; deleting an entry merges its space into the
// preceding record's length.
const direntHeader = 8 // inode(4) + recLen(2) + nameLen(1) + fileType(1)

// Dirent is one directory entry.
type Dirent struct {
	Ino  uint32
	Type FileType
	Name string
}

// direntRecLen returns the aligned record length for a name.
func direntRecLen(nameLen int) int {
	return (direntHeader + nameLen + 3) &^ 3
}

// initDirBlock fills a fresh directory block with "." and ".." entries.
func initDirBlock(blk []byte, self, parent uint32) {
	// "."
	binary.LittleEndian.PutUint32(blk[0:4], self)
	binary.LittleEndian.PutUint16(blk[4:6], uint16(direntRecLen(1)))
	blk[6] = 1
	blk[7] = byte(TypeDir)
	blk[8] = '.'
	// ".." covering the rest of the block.
	off := direntRecLen(1)
	binary.LittleEndian.PutUint32(blk[off:off+4], parent)
	binary.LittleEndian.PutUint16(blk[off+4:off+6], uint16(len(blk)-off))
	blk[off+6] = 2
	blk[off+7] = byte(TypeDir)
	blk[off+8] = '.'
	blk[off+9] = '.'
}

// WalkDirBlock calls fn with each live entry of a raw directory block, in
// block order, stopping early when fn returns false. name aliases blk: fn
// must copy what it keeps. A record that does not fit the block fails the
// walk with the offset it starts at; entries before it have been yielded.
func WalkDirBlock(blk []byte, fn func(ino uint32, typ FileType, name []byte) bool) error {
	off := 0
	for off < len(blk) {
		if off+direntHeader > len(blk) {
			return fmt.Errorf("extfs: corrupt dirent at offset %d", off)
		}
		ino := binary.LittleEndian.Uint32(blk[off : off+4])
		recLen := int(binary.LittleEndian.Uint16(blk[off+4 : off+6]))
		nameLen := int(blk[off+6])
		if recLen < direntHeader || off+recLen > len(blk) || direntHeader+nameLen > recLen {
			return fmt.Errorf("extfs: corrupt dirent record at offset %d (recLen=%d nameLen=%d)", off, recLen, nameLen)
		}
		if ino != 0 && nameLen > 0 && !fn(ino, FileType(blk[off+7]), blk[off+direntHeader:off+direntHeader+nameLen]) {
			return nil
		}
		off += recLen
	}
	return nil
}

// isDotName reports whether a directory entry name is "." or "..".
func isDotName(name []byte) bool { return string(name) == "." || string(name) == ".." }

// dirBlocks iterates the data blocks of a directory inode.
func (fs *FS) dirBlocks(in *Inode) ([]uint64, error) {
	return fs.fileBlocks(in)
}

// lookupInDir finds name in the directory, returning its entry. Names are
// compared in place, so a lookup allocates only its block reads.
func (fs *FS) lookupInDir(dir *Inode, name string) (Dirent, error) {
	blocks, err := fs.dirBlocks(dir)
	if err != nil {
		return Dirent{}, err
	}
	for _, blk := range blocks {
		buf, err := fs.readBlock(blk)
		if err != nil {
			return Dirent{}, err
		}
		var found Dirent
		if err := WalkDirBlock(buf, func(ino uint32, typ FileType, n []byte) bool {
			if string(n) != name {
				return true
			}
			found = Dirent{Ino: ino, Type: typ, Name: name}
			return false
		}); err != nil {
			return Dirent{}, err
		}
		if found.Ino != 0 {
			return found, nil
		}
	}
	return Dirent{}, ErrNotFound
}

// addDirEntry inserts (name -> ino) into the directory, growing it by one
// block if needed. dirIno is the directory's inode number; dir is mutated
// (size) and written back by the caller when grown.
func (fs *FS) addDirEntry(dirIno uint32, dir *Inode, name string, ino uint32, ft FileType) error {
	if len(name) == 0 || len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	need := direntRecLen(len(name))
	blocks, err := fs.dirBlocks(dir)
	if err != nil {
		return err
	}
	for _, blk := range blocks {
		buf, err := fs.readBlock(blk)
		if err != nil {
			return err
		}
		if fs.insertIntoDirBlock(buf, name, ino, ft, need) {
			return fs.writeBlock(blk, buf)
		}
	}
	// No room: grow the directory by one block.
	idx := dir.Size / uint64(fs.sb.BlockSize)
	blk, err := fs.blockOfFile(dir, idx, true)
	if err != nil {
		return err
	}
	buf := make([]byte, fs.sb.BlockSize)
	// One record spanning the whole block.
	binary.LittleEndian.PutUint32(buf[0:4], ino)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(buf)))
	buf[6] = byte(len(name))
	buf[7] = byte(ft)
	copy(buf[direntHeader:], name)
	if err := fs.writeBlock(blk, buf); err != nil {
		return err
	}
	dir.Size += uint64(fs.sb.BlockSize)
	dir.Mtime = fs.tick()
	return fs.writeInode(dirIno, dir)
}

// insertIntoDirBlock finds space in one directory block, splitting an
// existing record. Returns false when the block has no room.
func (fs *FS) insertIntoDirBlock(buf []byte, name string, ino uint32, ft FileType, need int) bool {
	off := 0
	for off < len(buf) {
		entIno := binary.LittleEndian.Uint32(buf[off : off+4])
		recLen := int(binary.LittleEndian.Uint16(buf[off+4 : off+6]))
		nameLen := int(buf[off+6])
		if recLen < direntHeader || off+recLen > len(buf) {
			return false // corrupt; let reads report it
		}
		var used int
		if entIno == 0 || nameLen == 0 {
			used = 0
		} else {
			used = direntRecLen(nameLen)
		}
		if recLen-used >= need {
			insertAt := off + used
			if used == 0 {
				insertAt = off
			} else {
				binary.LittleEndian.PutUint16(buf[off+4:off+6], uint16(used))
			}
			rest := off + recLen - insertAt
			binary.LittleEndian.PutUint32(buf[insertAt:insertAt+4], ino)
			binary.LittleEndian.PutUint16(buf[insertAt+4:insertAt+6], uint16(rest))
			buf[insertAt+6] = byte(len(name))
			buf[insertAt+7] = byte(ft)
			copy(buf[insertAt+direntHeader:], name)
			// Clear stale name bytes after the new name within the header
			// area we own (cosmetic; parsing uses nameLen).
			return true
		}
		off += recLen
	}
	return false
}

// removeDirEntry deletes name from the directory.
func (fs *FS) removeDirEntry(dir *Inode, name string) error {
	blocks, err := fs.dirBlocks(dir)
	if err != nil {
		return err
	}
	for _, blk := range blocks {
		buf, err := fs.readBlock(blk)
		if err != nil {
			return err
		}
		if fs.removeFromDirBlock(buf, name) {
			return fs.writeBlock(blk, buf)
		}
	}
	return ErrNotFound
}

// removeFromDirBlock unlinks a name inside one block by merging its record
// into the predecessor (or zeroing the inode when it is the first record).
func (fs *FS) removeFromDirBlock(buf []byte, name string) bool {
	off, prev := 0, -1
	for off < len(buf) {
		ino := binary.LittleEndian.Uint32(buf[off : off+4])
		recLen := int(binary.LittleEndian.Uint16(buf[off+4 : off+6]))
		nameLen := int(buf[off+6])
		if recLen < direntHeader || off+recLen > len(buf) {
			return false
		}
		if ino != 0 && nameLen > 0 && string(buf[off+direntHeader:off+direntHeader+nameLen]) == name {
			if prev >= 0 {
				prevLen := int(binary.LittleEndian.Uint16(buf[prev+4 : prev+6]))
				binary.LittleEndian.PutUint16(buf[prev+4:prev+6], uint16(prevLen+recLen))
			} else {
				binary.LittleEndian.PutUint32(buf[off:off+4], 0)
				buf[off+6] = 0
			}
			return true
		}
		prev = off
		off += recLen
	}
	return false
}

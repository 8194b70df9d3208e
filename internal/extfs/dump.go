package extfs

import (
	"fmt"
	"sort"
	"strings"
)

// FileRecord is one live inode in the dumped system view.
type FileRecord struct {
	Ino  uint32
	Path string
	Type FileType
	Size uint64
	// Blocks are the file's data blocks in logical order (absolute fs
	// block numbers).
	Blocks []uint64
}

// View is the initial high-level system view StorM generates when a block
// device is attached to its tenant VM (Section III-C): the file system's
// geometry (so metadata accesses can be classified) plus the mapping from
// data blocks to file paths. It is the analogue of the prototype's
// dumpe2fs-derived view.
type View struct {
	BlockSize       uint32
	SectorsPerBlock int
	BlocksCount     uint64
	InodesPerGroup  uint32
	Groups          []GroupLayout
	// Files lists every live inode with its path and block map.
	Files []FileRecord
}

// Dump builds the initial system view by walking the directory tree.
func (fs *FS) Dump() (*View, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	v := &View{
		BlockSize:       fs.sb.BlockSize,
		SectorsPerBlock: fs.sectorsPerBlock,
		BlocksCount:     fs.sb.BlocksCount,
		InodesPerGroup:  fs.sb.InodesPerGroup,
		Groups:          append([]GroupLayout(nil), fs.geom...),
	}
	if err := fs.dumpDir("/", RootIno, v, make(map[uint32]bool)); err != nil {
		return nil, err
	}
	sort.Slice(v.Files, func(i, j int) bool { return v.Files[i].Path < v.Files[j].Path })
	return v, nil
}

func (fs *FS) dumpDir(path string, ino uint32, v *View, seen map[uint32]bool) error {
	if seen[ino] {
		return fmt.Errorf("extfs: directory cycle at inode %d", ino)
	}
	seen[ino] = true
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	blocks, err := fs.fileBlocks(in)
	if err != nil {
		return err
	}
	v.Files = append(v.Files, FileRecord{
		Ino:    ino,
		Path:   path,
		Type:   TypeDir,
		Size:   in.Size,
		Blocks: blocks,
	})
	for _, blk := range blocks {
		buf, err := fs.readBlock(blk)
		if err != nil {
			return err
		}
		var werr error
		if err := WalkDirBlock(buf, func(cino uint32, ctyp FileType, name []byte) bool {
			if !isDotName(name) {
				werr = fs.dumpEntry(joinPath(path, string(name)), cino, ctyp, v, seen)
			}
			return werr == nil
		}); err != nil {
			return err
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// dumpEntry adds one directory entry, recursing into subdirectories.
func (fs *FS) dumpEntry(path string, ino uint32, typ FileType, v *View, seen map[uint32]bool) error {
	if typ == TypeDir {
		return fs.dumpDir(path, ino, v, seen)
	}
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	blocks, err := fs.fileBlocks(in)
	if err != nil {
		return err
	}
	v.Files = append(v.Files, FileRecord{Ino: ino, Path: path, Type: in.Type, Size: in.Size, Blocks: blocks})
	return nil
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// String renders a dumpe2fs-style summary.
func (v *View) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "extfs view: %d blocks of %d bytes, %d groups\n",
		v.BlocksCount, v.BlockSize, len(v.Groups))
	for _, f := range v.Files {
		fmt.Fprintf(&b, "  %-4s %8d  %s (inode %d, %d blocks)\n",
			f.Type, f.Size, f.Path, f.Ino, len(f.Blocks))
	}
	return b.String()
}

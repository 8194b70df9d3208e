package extfs

import (
	"fmt"
	"sort"
	"strings"
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name string
	Ino  uint32
	Type FileType
	Size uint64
	// Mtime is the logical modification timestamp.
	Mtime uint64
}

// splitPath normalizes an absolute path into components.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("extfs: path %q is not absolute", path)
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// resolve walks the path to its inode.
func (fs *FS) resolve(path string) (uint32, *Inode, error) {
	parts, err := splitPath(path)
	if err != nil {
		return 0, nil, err
	}
	ino := uint32(RootIno)
	in, err := fs.readInode(ino)
	if err != nil {
		return 0, nil, err
	}
	for _, name := range parts {
		if in.Type != TypeDir {
			return 0, nil, ErrNotDir
		}
		ent, err := fs.lookupInDir(in, name)
		if err != nil {
			return 0, nil, err
		}
		ino = ent.Ino
		if in, err = fs.readInode(ino); err != nil {
			return 0, nil, err
		}
	}
	return ino, in, nil
}

// resolveParent walks to the parent directory of path, returning it plus
// the leaf name.
func (fs *FS) resolveParent(path string) (uint32, *Inode, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return 0, nil, "", err
	}
	if len(parts) == 0 {
		return 0, nil, "", fmt.Errorf("extfs: %q has no parent", path)
	}
	parent := "/" + strings.Join(parts[:len(parts)-1], "/")
	ino, in, err := fs.resolve(parent)
	if err != nil {
		return 0, nil, "", err
	}
	if in.Type != TypeDir {
		return 0, nil, "", ErrNotDir
	}
	return ino, in, parts[len(parts)-1], nil
}

// Create makes an empty regular file.
func (fs *FS) Create(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.createNode(path, TypeFile)
	return err
}

// Mkdir makes a directory.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, err := fs.createNode(path, TypeDir)
	return err
}

// MkdirAll makes a directory and any missing ancestors.
func (fs *FS) MkdirAll(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if err := fs.Mkdir(cur); err != nil && err != ErrExists {
			return err
		}
	}
	return nil
}

// createNode allocates an inode and links it under the parent.
func (fs *FS) createNode(path string, ft FileType) (uint32, error) {
	parentIno, parent, name, err := fs.resolveParent(path)
	if err != nil {
		return 0, err
	}
	if _, err := fs.lookupInDir(parent, name); err == nil {
		return 0, ErrExists
	} else if err != ErrNotFound {
		return 0, err
	}
	ino, err := fs.allocInode()
	if err != nil {
		return 0, err
	}
	now := fs.tick()
	in := Inode{Type: ft, Links: 1, Mtime: now, Ctime: now}
	if ft == TypeDir {
		blk, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		in.Direct[0] = blk
		in.Size = uint64(fs.sb.BlockSize)
		in.Links = 2
		buf := make([]byte, fs.sb.BlockSize)
		initDirBlock(buf, ino, parentIno)
		if err := fs.writeBlock(blk, buf); err != nil {
			return 0, err
		}
	}
	if err := fs.writeInode(ino, &in); err != nil {
		return 0, err
	}
	if err := fs.addDirEntry(parentIno, parent, name, ino, ft); err != nil {
		return 0, err
	}
	if ft == TypeDir {
		parent.Links++
	}
	parent.Mtime = fs.tick()
	if err := fs.writeInode(parentIno, parent); err != nil {
		return 0, err
	}
	return ino, nil
}

// WriteFile truncates the file (creating it if needed) and writes data.
func (fs *FS) WriteFile(path string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, in, err := fs.resolve(path)
	if err == ErrNotFound {
		if ino, err = fs.createNode(path, TypeFile); err != nil {
			return err
		}
		if in, err = fs.readInode(ino); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	if in.Type == TypeDir {
		return ErrIsDir
	}
	if err := fs.freeInodeBlocks(in); err != nil {
		return err
	}
	return fs.writeAtLocked(ino, in, data, 0)
}

// WriteAt writes data at the byte offset, growing the file as needed.
func (fs *FS) WriteAt(path string, data []byte, offset uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, in, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if in.Type == TypeDir {
		return ErrIsDir
	}
	return fs.writeAtLocked(ino, in, data, offset)
}

// Append writes data at the end of the file.
func (fs *FS) Append(path string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, in, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if in.Type == TypeDir {
		return ErrIsDir
	}
	return fs.writeAtLocked(ino, in, data, in.Size)
}

func (fs *FS) writeAtLocked(ino uint32, in *Inode, data []byte, offset uint64) error {
	bs := uint64(fs.sb.BlockSize)
	if (offset+uint64(len(data))+bs-1)/bs > fs.maxFileBlocks() {
		return ErrFileTooBig
	}
	pos := offset
	rest := data
	for len(rest) > 0 {
		idx := pos / bs
		within := pos % bs
		n := bs - within
		if n > uint64(len(rest)) {
			n = uint64(len(rest))
		}
		blk, err := fs.blockOfFile(in, idx, true)
		if err != nil {
			return err
		}
		if within == 0 && n == bs {
			if err := fs.writeBlock(blk, rest[:bs]); err != nil {
				return err
			}
		} else {
			buf, err := fs.readBlock(blk)
			if err != nil {
				return err
			}
			copy(buf[within:], rest[:n])
			if err := fs.writeBlock(blk, buf); err != nil {
				return err
			}
		}
		pos += n
		rest = rest[n:]
	}
	if pos > in.Size {
		in.Size = pos
	}
	in.Mtime = fs.tick()
	return fs.writeInode(ino, in)
}

// ReadFile reads the whole file.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, in, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if in.Type == TypeDir {
		return nil, ErrIsDir
	}
	buf := make([]byte, in.Size)
	if err := fs.readAtLocked(in, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadAt fills p from the byte offset. Reading past EOF is an error.
func (fs *FS) ReadAt(path string, p []byte, offset uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, in, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if in.Type == TypeDir {
		return ErrIsDir
	}
	if offset+uint64(len(p)) > in.Size {
		return fmt.Errorf("extfs: read [%d,%d) beyond size %d", offset, offset+uint64(len(p)), in.Size)
	}
	return fs.readAtLocked(in, p, offset)
}

func (fs *FS) readAtLocked(in *Inode, p []byte, offset uint64) error {
	bs := uint64(fs.sb.BlockSize)
	pos := offset
	rest := p
	for len(rest) > 0 {
		idx := pos / bs
		within := pos % bs
		n := bs - within
		if n > uint64(len(rest)) {
			n = uint64(len(rest))
		}
		blk, err := fs.blockOfFile(in, idx, false)
		if err != nil {
			return err
		}
		if blk == 0 {
			clear(rest[:n]) // sparse hole
		} else {
			buf, err := fs.readBlock(blk)
			if err != nil {
				return err
			}
			copy(rest[:n], buf[within:within+n])
		}
		pos += n
		rest = rest[n:]
	}
	return nil
}

// Remove unlinks a regular file, freeing its inode and blocks.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parentIno, parent, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ent, err := fs.lookupInDir(parent, name)
	if err != nil {
		return err
	}
	in, err := fs.readInode(ent.Ino)
	if err != nil {
		return err
	}
	if in.Type == TypeDir {
		return ErrIsDir
	}
	if err := fs.removeDirEntry(parent, name); err != nil {
		return err
	}
	if err := fs.freeInodeBlocks(in); err != nil {
		return err
	}
	in.Type = TypeFree
	in.Links = 0
	if err := fs.writeInode(ent.Ino, in); err != nil {
		return err
	}
	if err := fs.freeInode(ent.Ino); err != nil {
		return err
	}
	parent.Mtime = fs.tick()
	return fs.writeInode(parentIno, parent)
}

// Rename moves oldPath to newPath (which must not exist).
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldParentIno, oldParent, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return err
	}
	ent, err := fs.lookupInDir(oldParent, oldName)
	if err != nil {
		return err
	}
	newParentIno, newParent, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	if _, err := fs.lookupInDir(newParent, newName); err == nil {
		return ErrExists
	} else if err != ErrNotFound {
		return err
	}
	if err := fs.addDirEntry(newParentIno, newParent, newName, ent.Ino, ent.Type); err != nil {
		return err
	}
	// Re-read the old parent when both parents are the same inode, so we
	// see the entry layout the insert produced.
	if newParentIno == oldParentIno {
		oldParent, err = fs.readInode(oldParentIno)
		if err != nil {
			return err
		}
	}
	if err := fs.removeDirEntry(oldParent, oldName); err != nil {
		return err
	}
	if ent.Type == TypeDir && oldParentIno != newParentIno {
		oldParent.Links--
		newParent.Links++
		if err := fs.writeInode(newParentIno, newParent); err != nil {
			return err
		}
	}
	oldParent.Mtime = fs.tick()
	if err := fs.writeInode(oldParentIno, oldParent); err != nil {
		return err
	}
	if newParentIno != oldParentIno {
		newParent.Mtime = fs.tick()
		return fs.writeInode(newParentIno, newParent)
	}
	return nil
}

// ReadDir lists the directory (excluding "." and ".."), sorted by name.
func (fs *FS) ReadDir(path string) ([]Dirent, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, in, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if in.Type != TypeDir {
		return nil, ErrNotDir
	}
	blocks, err := fs.dirBlocks(in)
	if err != nil {
		return nil, err
	}
	var out []Dirent
	for _, blk := range blocks {
		buf, err := fs.readBlock(blk)
		if err != nil {
			return nil, err
		}
		if err := WalkDirBlock(buf, func(ino uint32, typ FileType, name []byte) bool {
			if !isDotName(name) {
				out = append(out, Dirent{Ino: ino, Type: typ, Name: string(name)})
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stat returns metadata for a path.
func (fs *FS) Stat(path string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, in, err := fs.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	parts, _ := splitPath(path)
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return FileInfo{Name: name, Ino: ino, Type: in.Type, Size: in.Size, Mtime: in.Mtime}, nil
}

// Sync flushes the backing device.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dev.Flush()
}

// Exists reports whether the path resolves.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, _, err := fs.resolve(path)
	return err == nil
}

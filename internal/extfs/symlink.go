package extfs

// Symbolic links: the link target is stored in the inode's first data
// block (no fast symlinks, keeping the on-disk format uniform), with the
// inode size holding the target length.

// Symlink creates a symbolic link at linkPath pointing at target. The
// target is stored verbatim; it need not exist.
func (fs *FS) Symlink(target, linkPath string) error {
	if len(target) == 0 || len(target) > int(fs.sb.BlockSize) {
		return ErrNameTooLong
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.createNode(linkPath, TypeSymlink)
	if err != nil {
		return err
	}
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	blk, err := fs.allocBlock()
	if err != nil {
		return err
	}
	buf := make([]byte, fs.sb.BlockSize)
	copy(buf, target)
	if err := fs.writeBlock(blk, buf); err != nil {
		return err
	}
	in.Direct[0] = blk
	in.Size = uint64(len(target))
	in.Mtime = fs.tick()
	return fs.writeInode(ino, in)
}

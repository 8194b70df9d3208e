package extfs

// This file exports the raw metadata decoders the semantics-reconstruction
// layer needs to interpret intercepted metadata writes. The decoders are
// read-only views over on-disk bytes; they never touch a device.

// InodeRecord is the publicly decodable on-disk inode form.
type InodeRecord struct {
	Type           FileType
	Links          uint16
	Size           uint64
	Mtime          uint64
	Direct         [directBlocks]uint64
	Indirect       uint64
	DoubleIndirect uint64
}

// DirectBlockCount is the number of direct pointers per inode.
const DirectBlockCount = directBlocks

// PointerSize is the width of a block pointer inside indirect blocks.
const PointerSize = ptrSize

// DecodeInodeRecord parses one on-disk inode (InodeSize bytes).
func DecodeInodeRecord(b []byte) InodeRecord {
	var in Inode
	in.decode(b)
	return InodeRecord{
		Type:           in.Type,
		Links:          in.Links,
		Size:           in.Size,
		Mtime:          in.Mtime,
		Direct:         in.Direct,
		Indirect:       in.Indirect,
		DoubleIndirect: in.DoubleIndirect,
	}
}

// DecodeSuperblock parses an on-disk superblock, returning ErrNotFormatted
// when the magic is absent.
func DecodeSuperblock(b []byte) (Superblock, error) {
	var sb Superblock
	err := sb.decode(b)
	return sb, err
}

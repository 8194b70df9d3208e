// Package semantic implements StorM's semantics reconstruction (Section
// III-C): middle-boxes observe only low-level block accesses (disk sectors,
// raw data, inode metadata), while tenants operate on files and
// directories. A Reconstructor starts from the initial high-level system
// view generated when the volume is attached (extfs.View, the dumpe2fs
// analogue), tracks every metadata access to keep the view current, and
// converts block-level reads and writes into high-level file operations —
// the Classification and Update phases of the paper's monitoring engine.
package semantic

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"repro/internal/extfs"
)

// EventType classifies a reconstructed operation.
type EventType int

// Event types.
const (
	// EvRead / EvWrite are data accesses attributed to a file (or to a
	// directory's entries block, logged as "<dir>/.").
	EvRead EventType = iota + 1
	EvWrite
	// EvMetaRead / EvMetaWrite are metadata accesses (inode tables,
	// bitmaps, superblock).
	EvMetaRead
	EvMetaWrite
	// EvCreate, EvDelete, EvRename are recovered file-level operations.
	EvCreate
	EvDelete
	EvRename
)

// String renders the event type as it appears in the access log.
func (t EventType) String() string {
	switch t {
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvMetaRead:
		return "read"
	case EvMetaWrite:
		return "write"
	case EvCreate:
		return "create"
	case EvDelete:
		return "delete"
	case EvRename:
		return "rename"
	default:
		return "op(?)"
	}
}

// Event is one reconstructed high-level operation.
type Event struct {
	// Seq is the access sequence number the event was recovered from.
	Seq uint64
	// Type classifies the operation.
	Type EventType
	// Path is the file or directory involved. Directory-entry accesses use
	// the paper's "<dir>/." notation; metadata accesses use "META:
	// <detail>".
	Path string
	// Size is the number of bytes accessed (0 for pure namespace events).
	Size int
	// OldPath carries the source of a rename.
	OldPath string
}

// String renders the event as one Table I row.
func (e Event) String() string {
	if e.Type == EvRename {
		return fmt.Sprintf("%-6d %-6s %s -> %s", e.Seq, e.Type, e.OldPath, e.Path)
	}
	if e.Size > 0 {
		return fmt.Sprintf("%-6d %-6s %s %d", e.Seq, e.Type, e.Path, e.Size)
	}
	return fmt.Sprintf("%-6d %-6s %s", e.Seq, e.Type, e.Path)
}

// inoMeta is the reconstructor's live knowledge of one inode.
type inoMeta struct {
	ino    uint32
	typ    extfs.FileType
	path   string
	size   uint64
	blocks map[uint64]bool
	// dot caches the "<dir>/." path for dotOf, the path it was built from.
	dot, dotOf string
}

// dotPath returns the "<dir>/." path of a directory, built once per path.
func (m *inoMeta) dotPath() string {
	if m.dot == "" || m.dotOf != m.path {
		m.dot, m.dotOf = dirDot(m.path), m.path
	}
	return m.dot
}

// Reconstructor converts block accesses into file-level events.
type Reconstructor struct {
	mu   sync.Mutex
	view *extfs.View
	sb   extfs.Superblock
	geom []extfs.GroupLayout

	seq uint64

	inodes     map[uint32]*inoMeta
	blockOwner map[uint64]uint32 // data block -> ino
	// pendingData holds writes to blocks not yet attributed to a file;
	// they are emitted once a metadata update maps the block.
	pendingData map[uint64]pendingWrite
	// orphaned tracks names removed from directories whose inodes are
	// still allocated (rename-in-flight or deletion-in-progress).
	orphaned map[uint32]string
	// ptrBlocks tracks indirect pointer blocks by owning inode.
	ptrBlocks map[uint64]ptrRef
	// dirShadow holds the entries last seen in each directory block, and
	// gen numbers the diffs that mark them (see updateFromDirBlock).
	dirShadow map[uint64]*dirShadow
	gen       uint64
	// metaPaths interns the per-group "META: ..." paths.
	metaPaths map[metaKey]string

	// events is the retained log; the current access's events start at
	// accessStart.
	events      []Event
	accessStart int
	onEvt       func(Event)
}

type pendingWrite struct {
	seq  uint64
	size int
}

// New builds a reconstructor from the initial system view.
func New(view *extfs.View) *Reconstructor {
	r := &Reconstructor{
		view: view,
		sb: extfs.Superblock{
			BlockSize:      view.BlockSize,
			BlocksCount:    view.BlocksCount,
			InodesPerGroup: view.InodesPerGroup,
			GroupCount:     uint32(len(view.Groups)),
		},
		geom: view.Groups,
	}
	r.reset()
	byPath := make(map[string]*inoMeta, len(view.Files))
	for _, f := range view.Files {
		m := &inoMeta{
			ino:    f.Ino,
			typ:    f.Type,
			path:   f.Path,
			size:   f.Size,
			blocks: make(map[uint64]bool, len(f.Blocks)),
		}
		for _, b := range f.Blocks {
			m.blocks[b] = true
			r.blockOwner[b] = f.Ino
		}
		r.inodes[f.Ino] = m
		byPath[f.Path] = m
	}
	// Single-block directories are shadowed exactly from the view;
	// multi-block directories start empty and converge as their blocks are
	// rewritten.
	for _, f := range view.Files {
		parent := byPath[path.Dir(f.Path)]
		if f.Path == "/" || parent == nil || parent.typ != extfs.TypeDir || len(parent.blocks) != 1 {
			continue
		}
		for blk := range parent.blocks {
			r.shadowOf(blk).add(path.Base(f.Path), f.Ino, 0)
		}
	}
	return r
}

// reset drops all attribution state.
func (r *Reconstructor) reset() {
	r.inodes = make(map[uint32]*inoMeta)
	r.blockOwner = make(map[uint64]uint32)
	r.pendingData = make(map[uint64]pendingWrite)
	r.orphaned = make(map[uint32]string)
	r.ptrBlocks = make(map[uint64]ptrRef)
	r.dirShadow = make(map[uint64]*dirShadow)
	r.metaPaths = make(map[metaKey]string)
}

// OnEvent registers a callback invoked (without the lock held) for every
// reconstructed event, in order.
func (r *Reconstructor) OnEvent(fn func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvt = fn
}

// Events returns the retained event log.
func (r *Reconstructor) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// OnAccess feeds one block-level access: write says the direction,
// sectorLBA is the device sector, and data is the transferred payload
// (required for writes so metadata updates can be parsed; may be nil for
// reads, in which case length gives the size). The events go straight into
// the retained log; the returned slice is that part of the log, clipped so
// appending to it cannot write into the log.
func (r *Reconstructor) OnAccess(write bool, sectorLBA uint64, data []byte, length int) []Event {
	r.mu.Lock()
	if data != nil {
		length = len(data)
	}
	r.seq++
	r.accessStart = len(r.events)
	spb := uint64(r.view.SectorsPerBlock)
	bs := uint64(r.view.BlockSize)
	firstBlock := sectorLBA / spb

	// Split the access into fs blocks.
	nBlocks := (uint64(length) + bs - 1) / bs
	if nBlocks == 0 {
		nBlocks = 1
	}
	for i := uint64(0); i < nBlocks; i++ {
		blk := firstBlock + i
		off := int(i * bs)
		end := off + int(bs)
		if end > length {
			end = length
		}
		var chunk []byte
		if data != nil && off < len(data) {
			chunk = data[off:min(end, len(data))]
		}
		r.classifyBlock(write, blk, chunk, end-off)
	}
	n := len(r.events)
	out := r.events[r.accessStart:n:n]
	cb := r.onEvt
	r.mu.Unlock()
	if cb != nil {
		for _, e := range out {
			cb(e)
		}
	}
	return out
}

// emit appends one event of the current access to the log. A data access
// right after one to the same file merges into it: contiguous same-file
// blocks are one event.
func (r *Reconstructor) emit(e Event) {
	if n := len(r.events); (e.Type == EvRead || e.Type == EvWrite) && n > r.accessStart {
		if last := &r.events[n-1]; last.Type == e.Type && last.Path == e.Path {
			last.Size += e.Size
			return
		}
	}
	e.Seq = r.seq
	r.events = append(r.events, e)
}

// classifyBlock is the Classification phase for one fs block.
func (r *Reconstructor) classifyBlock(write bool, blk uint64, data []byte, size int) {
	class, group := r.sb.Classify(blk, r.geom)
	switch class {
	case extfs.ClassSuperblock:
		if write && data != nil {
			r.learnSuperblock(data)
		}
		r.emitMeta(write, "META: superblock", size)
	case extfs.ClassBlockBitmap, extfs.ClassInodeBitmap:
		r.emitMeta(write, r.metaPath(class, group), size)
	case extfs.ClassInodeTable:
		if write && data != nil {
			r.updateFromInodeTable(blk, group, data)
		}
		r.emitMeta(write, r.metaPath(class, group), size)
	default:
		r.dataAccess(write, blk, data, size)
	}
}

func (r *Reconstructor) emitMeta(write bool, path string, size int) {
	t := EvMetaRead
	if write {
		t = EvMetaWrite
	}
	r.emit(Event{Type: t, Path: path, Size: size})
}

// metaKey names a per-group metadata path.
type metaKey struct {
	class extfs.BlockClass
	group uint32
}

// metaPath returns the interned "META: ..." path of a group's bitmap or
// inode-table block.
func (r *Reconstructor) metaPath(class extfs.BlockClass, group uint32) string {
	k := metaKey{class, group}
	if p, ok := r.metaPaths[k]; ok {
		return p
	}
	detail := "inode_group"
	switch class {
	case extfs.ClassBlockBitmap:
		detail = "block_bitmap_group"
	case extfs.ClassInodeBitmap:
		detail = "inode_bitmap_group"
	}
	p := fmt.Sprintf("META: %s_%d", detail, group)
	r.metaPaths[k] = p
	return p
}

// dataAccess attributes a data-block access to a file or directory.
func (r *Reconstructor) dataAccess(write bool, blk uint64, data []byte, size int) {
	t := EvRead
	if write {
		t = EvWrite
	}
	// Indirect pointer blocks masquerade as data; interpret their writes
	// as metadata updates.
	if _, isPtr := r.ptrBlocks[blk]; isPtr {
		if write {
			r.handlePtrBlock(blk, data)
		}
		r.emitMeta(write, "META: indirect_block", size)
		return
	}
	ino, known := r.blockOwner[blk]
	if !known {
		if write {
			// Data written ahead of its metadata update: hold it.
			r.pendingData[blk] = pendingWrite{seq: r.seq, size: size}
			return
		}
		r.emit(Event{Type: EvRead, Path: fmt.Sprintf("block_%d", blk), Size: size})
		return
	}
	m := r.inodes[ino]
	if m == nil {
		return
	}
	if m.typ == extfs.TypeDir {
		if write && data != nil {
			r.updateFromDirBlock(m, blk, data)
		}
		r.emit(Event{Type: t, Path: m.dotPath(), Size: size})
		return
	}
	p := m.path
	if p == "" {
		p = fmt.Sprintf("inode_%d", ino)
	}
	r.emit(Event{Type: t, Path: p, Size: size})
}

func dirDot(p string) string {
	if strings.HasSuffix(p, "/") {
		return p + "."
	}
	return p + "/."
}

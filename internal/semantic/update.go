package semantic

import (
	"encoding/binary"
	"strings"

	"repro/internal/extfs"
)

// This file is the Update phase: intercepted metadata writes mutate the
// reconstructor's live system view so subsequent data accesses resolve to
// the right files.

// ptrKind marks indirect pointer blocks owned by an inode.
type ptrKind int

const (
	ptrL1 ptrKind = 1 // entries point at data blocks
	ptrL2 ptrKind = 2 // entries point at L1 pointer blocks
)

type ptrRef struct {
	ino  uint32
	kind ptrKind
}

// learnSuperblock folds an intercepted superblock write into the view. A
// structurally different superblock (fresh mkfs through the middle-box
// chain) rebuilds the geometry; routine free-count updates are ignored.
func (r *Reconstructor) learnSuperblock(data []byte) {
	sb, err := extfs.DecodeSuperblock(data)
	if err != nil {
		return
	}
	structural := sb.BlockSize != r.sb.BlockSize ||
		sb.BlocksCount != r.sb.BlocksCount ||
		sb.GroupCount != uint32(len(r.geom)) ||
		sb.InodesPerGroup != r.sb.InodesPerGroup
	if !structural {
		return
	}
	if sb.BlockSize == 0 || sb.BlockSize%512 != 0 {
		return
	}
	devBlockSize := int(r.view.BlockSize) / max(r.view.SectorsPerBlock, 1)
	if devBlockSize > 0 && int(sb.BlockSize)%devBlockSize == 0 {
		r.view.SectorsPerBlock = int(sb.BlockSize) / devBlockSize
	}
	r.sb = sb
	r.geom = sb.Geometry()
	r.view.BlockSize = sb.BlockSize
	r.view.BlocksCount = sb.BlocksCount
	r.view.InodesPerGroup = sb.InodesPerGroup
	r.view.Groups = r.geom
	// A fresh file system invalidates all prior attribution state, and the
	// interned metadata paths with the geometry they named.
	r.reset()
}

// updateFromInodeTable diffs a written inode-table block against the live
// view, detecting allocations, deletions, growth, and block mappings.
func (r *Reconstructor) updateFromInodeTable(blk uint64, group uint32, data []byte) {
	perBlock := int(r.view.BlockSize) / extfs.InodeSize
	tableStart := r.geom[group].InodeTable
	blockIdx := blk - tableStart
	baseIno := group*r.view.InodesPerGroup + uint32(blockIdx)*uint32(perBlock) + 1

	for slot := 0; slot < perBlock && (slot+1)*extfs.InodeSize <= len(data); slot++ {
		ino := baseIno + uint32(slot)
		rec := extfs.DecodeInodeRecord(data[slot*extfs.InodeSize : (slot+1)*extfs.InodeSize])
		old := r.inodes[ino]
		switch {
		case rec.Type == extfs.TypeFree:
			if old != nil && old.typ != extfs.TypeFree {
				p := old.path
				if orphan, ok := r.orphaned[ino]; ok {
					p = orphan
				}
				if p == "" {
					p = "inode_?"
				}
				r.emit(Event{Type: EvDelete, Path: p})
				r.dropInode(ino)
			}
		default:
			if old == nil {
				old = &inoMeta{ino: ino, typ: rec.Type, blocks: make(map[uint64]bool)}
				if ino == extfs.RootIno {
					// The root directory has no naming dentry; its path is
					// fixed by convention.
					old.path = "/"
				}
				r.inodes[ino] = old
			}
			old.typ = rec.Type
			old.size = rec.Size
			r.syncBlockMap(old, rec)
		}
	}
}

// syncBlockMap registers the inode's direct blocks and pointer blocks,
// attributing any pending data writes.
func (r *Reconstructor) syncBlockMap(m *inoMeta, rec extfs.InodeRecord) {
	for _, b := range rec.Direct {
		if b != 0 {
			r.claimBlock(m, b)
		}
	}
	if rec.Indirect != 0 {
		r.ptrBlocks[rec.Indirect] = ptrRef{ino: m.ino, kind: ptrL1}
	}
	if rec.DoubleIndirect != 0 {
		r.ptrBlocks[rec.DoubleIndirect] = ptrRef{ino: m.ino, kind: ptrL2}
	}
}

// claimBlock maps a data block to its owner, emitting held writes. A block
// freed by one file and reallocated to another transfers ownership here,
// keeping attribution correct across reuse.
func (r *Reconstructor) claimBlock(m *inoMeta, blk uint64) {
	if m.blocks[blk] {
		return
	}
	if prev, ok := r.blockOwner[blk]; ok && prev != m.ino {
		if old := r.inodes[prev]; old != nil {
			delete(old.blocks, blk)
		}
	}
	m.blocks[blk] = true
	r.blockOwner[blk] = m.ino
	pend, ok := r.pendingData[blk]
	if !ok {
		return
	}
	delete(r.pendingData, blk)
	p := m.path
	switch {
	case p == "":
		p = "inode_?"
	case m.typ == extfs.TypeDir:
		p = m.dotPath()
	}
	r.emit(Event{Type: EvWrite, Path: p, Size: pend.size})
}

// dropInode removes all state for a freed inode.
func (r *Reconstructor) dropInode(ino uint32) {
	m := r.inodes[ino]
	if m != nil {
		for b := range m.blocks {
			if r.blockOwner[b] == ino {
				delete(r.blockOwner, b)
			}
		}
	}
	for b, ref := range r.ptrBlocks {
		if ref.ino == ino {
			delete(r.ptrBlocks, b)
		}
	}
	delete(r.inodes, ino)
	delete(r.orphaned, ino)
}

// handlePtrBlock interprets a write to an indirect pointer block.
func (r *Reconstructor) handlePtrBlock(blk uint64, data []byte) {
	ref := r.ptrBlocks[blk]
	m := r.inodes[ref.ino]
	if m == nil {
		return
	}
	for off := 0; off+extfs.PointerSize <= len(data); off += extfs.PointerSize {
		ptr := binary.LittleEndian.Uint64(data[off : off+extfs.PointerSize])
		if ptr == 0 {
			continue
		}
		if ref.kind == ptrL2 {
			r.ptrBlocks[ptr] = ptrRef{ino: ref.ino, kind: ptrL1}
		} else {
			r.claimBlock(m, ptr)
		}
	}
}

// dirShadow is the entry set last seen in one directory block: ents holds
// the entries, idx finds one by name. seen is the generation of the diff
// that last found an entry.
type dirShadow struct {
	idx  map[string]int
	ents []shadowEnt
}

type shadowEnt struct {
	name string
	ino  uint32
	seen uint64
}

func (r *Reconstructor) shadowOf(blk uint64) *dirShadow {
	s := r.dirShadow[blk]
	if s == nil {
		s = &dirShadow{idx: make(map[string]int)}
		r.dirShadow[blk] = s
	}
	return s
}

func (s *dirShadow) add(name string, ino uint32, seen uint64) {
	s.idx[name] = len(s.ents)
	s.ents = append(s.ents, shadowEnt{name: name, ino: ino, seen: seen})
}

// updateFromDirBlock diffs a written directory block against its shadow in
// place, recovering create, delete and rename operations. The walk marks
// the entries that still match and links new or changed ones, allocating
// only a new entry's path (its name is a suffix of it); a sweep then
// orphans the entries left unmarked. A block that does not parse leaves
// the shadow as it was.
func (r *Reconstructor) updateFromDirBlock(dir *inoMeta, blk uint64, data []byte) {
	if extfs.WalkDirBlock(data, func(uint32, extfs.FileType, []byte) bool { return true }) != nil {
		return
	}
	s := r.shadowOf(blk)
	r.gen++
	gen := r.gen
	_ = extfs.WalkDirBlock(data, func(ino uint32, _ extfs.FileType, name []byte) bool {
		if string(name) == "." || string(name) == ".." {
			return true
		}
		i, ok := s.idx[string(name)]
		switch {
		case !ok:
			p := dirBase(dir.path) + "/" + string(name) // one allocation, no temporary
			s.add(p[len(p)-len(name):], ino, gen)
			r.link(dir, s.ents[len(s.ents)-1].name, ino, p)
		case s.ents[i].seen == gen:
			// A name repeated within one block: the first record wins.
		default:
			s.ents[i].seen = gen
			if s.ents[i].ino != ino {
				s.ents[i].ino = ino
				r.link(dir, s.ents[i].name, ino, "")
			}
		}
		return true
	})
	// Removals: mark orphaned; deletion is confirmed when the inode frees.
	for i := 0; i < len(s.ents); {
		e := s.ents[i]
		if e.seen == gen {
			i++
			continue
		}
		if child := r.inodes[e.ino]; child != nil && joined(child.path, dir.path, e.name) {
			r.orphaned[e.ino] = child.path
			child.path = ""
		}
		last := len(s.ents) - 1
		s.ents[i] = s.ents[last]
		s.ents[last] = shadowEnt{}
		s.ents = s.ents[:last]
		delete(s.idx, e.name)
		if i < last {
			s.idx[s.ents[i].name] = i
		}
	}
}

// link records that dir names ino as name, recovering the create or rename
// that implies. p is the entry's joined path, or "" to build it only when
// the child's path differs.
func (r *Reconstructor) link(dir *inoMeta, name string, ino uint32, p string) {
	child := r.inodes[ino]
	if child == nil {
		child = &inoMeta{ino: ino, typ: extfs.TypeFile, blocks: make(map[uint64]bool)}
		r.inodes[ino] = child
	}
	if p == "" {
		if joined(child.path, dir.path, name) {
			return
		}
		p = joinPath(dir.path, name)
	}
	switch {
	case child.path == "":
		child.path = p
		r.emit(Event{Type: EvCreate, Path: p})
		delete(r.orphaned, ino)
	case child.path != p:
		oldPath := child.path
		r.repath(child, p)
		r.emit(Event{Type: EvRename, Path: p, OldPath: oldPath})
		delete(r.orphaned, ino)
	}
}

// repath renames an inode and, for directories, every descendant path.
func (r *Reconstructor) repath(m *inoMeta, newPath string) {
	oldPath := m.path
	m.path = newPath
	if m.typ != extfs.TypeDir {
		return
	}
	prefix := oldPath + "/"
	for _, other := range r.inodes {
		if other != m && strings.HasPrefix(other.path, prefix) {
			other.path = newPath + "/" + strings.TrimPrefix(other.path, prefix)
		}
	}
}

// dirBase is what a directory's path contributes to its entries' paths:
// "" for the root, "?" for a directory whose path is unknown.
func dirBase(dir string) string {
	switch dir {
	case "":
		return "?"
	case "/":
		return ""
	}
	return dir
}

func joinPath(dir, name string) string { return dirBase(dir) + "/" + name }

// joined reports whether p == joinPath(dir, name) without building it.
func joined(p, dir, name string) bool {
	dir = dirBase(dir)
	return len(p) == len(dir)+1+len(name) && p[:len(dir)] == dir && p[len(dir)] == '/' && p[len(dir)+1:] == name
}

package semantic

import (
	"encoding/binary"
	"maps"
	"testing"

	"repro/internal/extfs"
)

// shadowSet copies the shadow of one directory block as name -> inode.
func shadowSet(r *Reconstructor, blk uint64) map[string]uint32 {
	s := r.dirShadow[blk]
	if s == nil {
		return nil
	}
	out := make(map[string]uint32, len(s.ents))
	for _, e := range s.ents {
		out[e.name] = e.ino
	}
	return out
}

// dirBlockOf returns the single block of a directory the reconstructor knows.
func dirBlockOf(t testing.TB, r *Reconstructor, path string) uint64 {
	for _, m := range r.inodes {
		if m.path == path && len(m.blocks) == 1 {
			for b := range m.blocks {
				return b
			}
		}
	}
	t.Fatalf("no single-block directory %s", path)
	return 0
}

// TestCorruptDirBlockLeavesShadow: a directory block that does not parse
// changes nothing in the Update phase, and the next valid write of the same
// block diffs against the shadow from before it.
func TestCorruptDirBlockLeavesShadow(t *testing.T) {
	fs, r, tap := goldenSetup(t)
	blk := dirBlockOf(t, r, "/a")
	lba := blk * uint64(r.view.SectorsPerBlock)
	raw := make([]byte, r.view.BlockSize)
	if err := tap.dev.ReadAt(raw, lba); err != nil {
		t.Fatal(err)
	}
	before := shadowSet(r, blk)
	if len(before) == 0 {
		t.Fatal("the view did not shadow /a")
	}
	// Drop old.txt from the block and break the ".." record: a diff that
	// ignored the error would orphan old.txt.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[24:28], 0)
	binary.LittleEndian.PutUint16(bad[12+4:12+6], 3)
	nInodes, nOrphans := len(r.inodes), len(r.orphaned)
	evs := r.OnAccess(true, lba, bad, len(bad))
	if len(evs) != 1 || evs[0].Type != EvWrite || evs[0].Path != "/a/." {
		t.Errorf("corrupt block reconstructs %v, want only the /a/. write", evs)
	}
	if got := shadowSet(r, blk); !maps.Equal(got, before) {
		t.Errorf("corrupt block changed the shadow: %v, was %v", got, before)
	}
	if len(r.inodes) != nInodes || len(r.orphaned) != nOrphans {
		t.Errorf("corrupt block changed the view: %d inodes, %d orphans (were %d, %d)", len(r.inodes), len(r.orphaned), nInodes, nOrphans)
	}
	seq := r.seq
	if err := fs.Create("/a/new"); err != nil {
		t.Fatal(err)
	}
	var creates []string
	for _, e := range r.Events() {
		if e.Seq <= seq {
			continue
		}
		switch e.Type {
		case EvCreate:
			creates = append(creates, e.Path)
		case EvDelete, EvRename:
			t.Errorf("unexpected %s after the valid write", e)
		}
	}
	if len(creates) != 1 || creates[0] != "/a/new" {
		t.Errorf("valid write after a corrupt one creates %v, want [/a/new]", creates)
	}
	want := maps.Clone(before)
	for name, ino := range shadowSet(r, blk) {
		if name == "new" {
			want[name] = ino
		}
	}
	if got := shadowSet(r, blk); !maps.Equal(got, want) {
		t.Errorf("shadow after the valid write %v, want %v", got, want)
	}
}

// FuzzReconstructorMetadata writes arbitrary bytes, as a tenant VM may, to a
// known directory block and then to the inode-table block holding that
// directory's children. The reconstructor must not panic, must leave the
// directory's shadow alone when the block does not parse, and must stay
// bounded: the events and inodes one write adds are limited by what the
// block can name.
func FuzzReconstructorMetadata(f *testing.F) {
	fs, r0, tap := goldenSetup(f)
	view := r0.view
	blk := dirBlockOf(f, r0, "/a")
	bs := int(view.BlockSize)
	spb := uint64(view.SectorsPerBlock)
	itable := view.Groups[0].InodeTable
	read := func(b uint64) []byte {
		buf := make([]byte, bs)
		if err := tap.dev.ReadAt(buf, b*spb); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	dir, inodes := read(blk), read(itable)
	f.Add(dir, inodes)
	f.Add(dir[:40], inodes[:extfs.InodeSize])
	broken := append([]byte(nil), dir...)
	binary.LittleEndian.PutUint16(broken[12+4:12+6], 0)
	f.Add(broken, []byte{})
	if err := goldenScript(fs); err != nil {
		f.Fatal(err)
	}
	f.Add(read(blk), read(itable))

	f.Fuzz(func(t *testing.T, dirData, inodeData []byte) {
		dirData, inodeData = dirData[:min(len(dirData), bs)], inodeData[:min(len(inodeData), bs)]
		r := New(view)
		before := shadowSet(r, blk)
		nEvents, nInodes := len(r.events), len(r.inodes)
		r.OnAccess(true, blk*spb, dirData, len(dirData))
		if extfs.WalkDirBlock(dirData, func(uint32, extfs.FileType, []byte) bool { return true }) != nil {
			if got := shadowSet(r, blk); !maps.Equal(got, before) {
				t.Fatalf("unparsable block changed the shadow: %v, was %v", got, before)
			}
			if len(r.inodes) != nInodes {
				t.Fatalf("unparsable block changed the inode count %d -> %d", nInodes, len(r.inodes))
			}
		}
		r.OnAccess(true, itable*spb, inodeData, len(inodeData))
		// A record is at least 9 bytes; an inode slot can claim its direct
		// blocks and name one delete.
		slots := len(inodeData)/extfs.InodeSize + 1
		maxEvents := len(dirData)/9 + 1 + slots*(extfs.DirectBlockCount+1) + 1
		if n := len(r.events) - nEvents; n > maxEvents {
			t.Fatalf("%d events from %d + %d bytes, bound %d", n, len(dirData), len(inodeData), maxEvents)
		}
		if n := len(r.inodes) - nInodes; n > len(dirData)/9+slots {
			t.Fatalf("%d new inodes from %d + %d bytes", n, len(dirData), len(inodeData))
		}
	})
}

package extfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockdev"
)

// newDevFS formats a fresh 32 MiB volume and returns it with its device.
func newDevFS(tb testing.TB) (*blockdev.MemDisk, *FS) {
	tb.Helper()
	dev, err := blockdev.NewMemDisk(512, 65536)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return dev, fs
}

// refEntry is one live entry as the reference decoder reads it.
type refEntry struct {
	ino  uint32
	typ  FileType
	name string
}

// refDecode is an independent reading of the ext2 record format: records
// tile the block; a record needs its 8-byte header and its name to fit
// inside it, and it inside the block; an entry is live when both its inode
// and its name length are non-zero. It returns the live entries and the
// offset of the first bad record, or -1.
func refDecode(blk []byte) ([]refEntry, int) {
	var out []refEntry
	for off := 0; off < len(blk); {
		if len(blk)-off < 8 {
			return out, off
		}
		h := blk[off : off+8]
		recLen, nameLen := int(binary.LittleEndian.Uint16(h[4:6])), int(h[6])
		if recLen < 8 || recLen > len(blk)-off || 8+nameLen > recLen {
			return out, off
		}
		if ino := binary.LittleEndian.Uint32(h[0:4]); ino != 0 && nameLen != 0 {
			out = append(out, refEntry{ino, FileType(h[7]), string(blk[off+8 : off+8+nameLen])})
		}
		off += recLen
	}
	return out, -1
}

// checkWalk walks blk and holds the walker to the reference: the same
// entries in the same order, in-bounds names of at most MaxNameLen bytes,
// and an error exactly when the reference finds a bad record, naming its
// offset.
func checkWalk(t *testing.T, blk []byte) {
	t.Helper()
	want, bad := refDecode(blk)
	var got []refEntry
	err := WalkDirBlock(blk, func(ino uint32, typ FileType, name []byte) bool {
		if len(name) == 0 || len(name) > MaxNameLen {
			t.Fatalf("name of %d bytes", len(name))
		}
		got = append(got, refEntry{ino, typ, string(name)})
		return true
	})
	if (err != nil) != (bad >= 0) {
		t.Fatalf("walk error %v, reference bad offset %d", err, bad)
	}
	if err != nil {
		if at := fmt.Sprintf("offset %d ", bad); !strings.Contains(err.Error()+" ", at) {
			t.Fatalf("walk error %q does not name %s", err, at)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("walk yields %d entries, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: walk %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// dirBlockSeeds returns directory blocks an extfs session wrote: a fresh
// directory, one after creates and removes, and one with a long name.
func dirBlockSeeds(t testing.TB) [][]byte {
	dev, fs := newDevFS(t)
	var seeds [][]byte
	snap := func(dir string) {
		_, in, err := fs.resolve(dir)
		if err != nil {
			t.Fatal(err)
		}
		blk := make([]byte, fs.sb.BlockSize)
		if err := dev.ReadAt(blk, in.Direct[0]*uint64(fs.sectorsPerBlock)); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, blk)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	snap("/d")
	for i := 0; i < 20; i++ {
		if err := fs.Create(fmt.Sprintf("/d/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i += 3 {
		if err := fs.Remove(fmt.Sprintf("/d/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap("/d")
	if err := fs.Create("/" + string(bytes.Repeat([]byte{'x'}, MaxNameLen))); err != nil {
		t.Fatal(err)
	}
	snap("/")
	return seeds
}

// FuzzWalkDirBlock feeds arbitrary bytes to the walker, which parses
// directory blocks a tenant VM may have written: it must not panic, must
// agree entry for entry with the reference decode, and must either fail
// naming the bad record or yield in-bounds names.
func FuzzWalkDirBlock(f *testing.F) {
	seeds := dirBlockSeeds(f)
	for _, blk := range seeds {
		f.Add(blk)
		f.Add(blk[:64])
	}
	// Hand-made damage to the block after creates and removes: a short
	// tail, a zero record length, a name running past its record, a record
	// running past the block.
	for _, mut := range []func(b []byte) []byte{
		func(b []byte) []byte { return b[:len(b)-3] },
		func(b []byte) []byte { binary.LittleEndian.PutUint16(b[4:6], 0); return b },
		func(b []byte) []byte { b[12+6] = 200; return b },
		func(b []byte) []byte { binary.LittleEndian.PutUint16(b[12+4:12+6], 0xfff0); return b },
	} {
		f.Add(mut(append([]byte(nil), seeds[1]...)))
	}
	f.Fuzz(func(t *testing.T, blk []byte) {
		checkWalk(t, blk)
		// A walk that fn stops returns no error.
		n := 0
		if err := WalkDirBlock(blk, func(uint32, FileType, []byte) bool { n++; return false }); err != nil && n > 0 {
			t.Fatalf("walk stopped after an entry still failed: %v", err)
		}
	})
}

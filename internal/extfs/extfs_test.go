package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
)

// newFS formats a fresh 32 MiB volume.
func newFS(t *testing.T) *FS {
	t.Helper()
	dev, err := blockdev.NewMemDisk(512, 65536) // 32 MiB
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{})
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	return fs
}

func TestMkfsAndMount(t *testing.T) {
	dev, err := blockdev.NewMemDisk(512, 65536)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{})
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	sb := fs.sb
	if sb.Magic != Magic || sb.BlockSize != 4096 {
		t.Errorf("superblock = %+v", sb)
	}
	if err := fs.WriteFile("/hello.txt", []byte("world")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// Remount and read back.
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	got, err := fs2.ReadFile("/hello.txt")
	if err != nil {
		t.Fatalf("ReadFile after remount: %v", err)
	}
	if string(got) != "world" {
		t.Errorf("ReadFile = %q", got)
	}
}

func TestMountUnformatted(t *testing.T) {
	dev, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(dev); !errors.Is(err, ErrNotFormatted) {
		t.Errorf("Mount(blank) err = %v, want ErrNotFormatted", err)
	}
}

func TestMkfsValidation(t *testing.T) {
	dev, _ := blockdev.NewMemDisk(512, 65536)
	if _, err := Mkfs(dev, Options{BlockSize: 1000}); err == nil {
		t.Error("unaligned block size: want error")
	}
	tiny, _ := blockdev.NewMemDisk(512, 16)
	if _, err := Mkfs(tiny, Options{}); err == nil {
		t.Error("tiny device: want error")
	}
	if _, err := Mkfs(dev, Options{BlockSize: 4096, BlocksPerGroup: 4096*8 + 1}); err == nil {
		t.Error("group larger than bitmap: want error")
	}
}

func TestCreateAndStat(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("/a.txt"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	fi, err := fs.Stat("/a.txt")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if fi.Type != TypeFile || fi.Size != 0 || fi.Name != "a.txt" {
		t.Errorf("Stat = %+v", fi)
	}
	if err := fs.Create("/a.txt"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create err = %v, want ErrExists", err)
	}
	root, err := fs.Stat("/")
	if err != nil || root.Type != TypeDir || root.Ino != RootIno {
		t.Errorf("Stat(/) = %+v, %v", root, err)
	}
}

func TestMkdirTree(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/mnt/box/name1"); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	fi, err := fs.Stat("/mnt/box/name1")
	if err != nil || fi.Type != TypeDir {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	if err := fs.Mkdir("/mnt"); !errors.Is(err, ErrExists) {
		t.Errorf("Mkdir existing err = %v", err)
	}
	if err := fs.Mkdir("/nosuch/dir"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Mkdir missing parent err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t)
	sizes := []int{1, 100, 4096, 4097, 12 * 4096, 13 * 4096, 100 * 4096}
	for _, size := range sizes {
		path := fmt.Sprintf("/f%d", size)
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i * 31)
		}
		if err := fs.WriteFile(path, want); err != nil {
			t.Fatalf("WriteFile(%d): %v", size, err)
		}
		got, err := fs.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%d): %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("size %d round trip corrupted", size)
		}
	}
}

func TestWriteFileDoubleIndirect(t *testing.T) {
	// > 12 + 512 blocks forces the double-indirect path (block size 4096,
	// 512 pointers per block).
	fs := newFS(t)
	size := (directBlocks + 512 + 40) * 4096
	want := bytes.Repeat([]byte{0xAB}, size)
	if err := fs.WriteFile("/big", want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("/big")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("double-indirect file corrupted")
	}
	// Deleting it returns all blocks.
	free0 := fs.sb.FreeBlocks
	if err := fs.Remove("/big"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	free1 := fs.sb.FreeBlocks
	wantBack := uint64(size/4096) + 2 + 1 // data + indirect+dbl pointer + l1 pointer
	if free1-free0 < wantBack {
		t.Errorf("freed %d blocks, want >= %d", free1-free0, wantBack)
	}
}

func TestAppendAndWriteAt(t *testing.T) {
	fs := newFS(t)
	if err := fs.WriteFile("/log", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/log", []byte("-beta")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "alpha-beta" {
		t.Errorf("after Append = %q", got)
	}
	if err := fs.WriteAt("/log", []byte("BETA"), 6); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ReadFile("/log")
	if string(got) != "alpha-BETA" {
		t.Errorf("after WriteAt = %q", got)
	}
	// ReadAt window.
	buf := make([]byte, 4)
	if err := fs.ReadAt("/log", buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "BETA" {
		t.Errorf("ReadAt = %q", buf)
	}
	if err := fs.ReadAt("/log", buf, 8); err == nil {
		t.Error("ReadAt past EOF: want error")
	}
}

func TestSparseFiles(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("/sparse"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("/sparse", []byte("end"), 100*4096); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	fi, _ := fs.Stat("/sparse")
	if fi.Size != 100*4096+3 {
		t.Errorf("Size = %d", fi.Size)
	}
	// The hole reads back as zeros.
	buf := make([]byte, 4096)
	if err := fs.ReadAt("/sparse", buf, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4096)) {
		t.Error("hole is not zero")
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	fs := newFS(t)
	before := fs.sb
	if err := fs.WriteFile("/x", bytes.Repeat([]byte{1}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/x"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	after := fs.sb
	if after.FreeBlocks != before.FreeBlocks || after.FreeInodes != before.FreeInodes {
		t.Errorf("space leak: before %d/%d, after %d/%d",
			before.FreeBlocks, before.FreeInodes, after.FreeBlocks, after.FreeInodes)
	}
	if fs.Exists("/x") {
		t.Error("file still exists")
	}
	if err := fs.Remove("/x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Remove err = %v", err)
	}
}

func TestRemoveDirSemantics(t *testing.T) {
	fs := newFS(t)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("Remove(dir) err = %v, want ErrIsDir", err)
	}
}

func TestRenameFile(t *testing.T) {
	fs := newFS(t)
	if err := fs.WriteFile("/old", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/old", "/dir/new"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if fs.Exists("/old") {
		t.Error("old path still exists")
	}
	got, err := fs.ReadFile("/dir/new")
	if err != nil || string(got) != "payload" {
		t.Errorf("ReadFile(new) = %q, %v", got, err)
	}
	// Same-directory rename.
	if err := fs.Rename("/dir/new", "/dir/newer"); err != nil {
		t.Fatalf("same-dir Rename: %v", err)
	}
	if !fs.Exists("/dir/newer") || fs.Exists("/dir/new") {
		t.Error("same-dir rename wrong")
	}
	// Destination exists.
	if err := fs.WriteFile("/other", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/other", "/dir/newer"); !errors.Is(err, ErrExists) {
		t.Errorf("Rename onto existing err = %v", err)
	}
}

func TestRenameDirAcrossParents(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/a/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/sub/f", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a/sub", "/b/sub"); err != nil {
		t.Fatalf("Rename dir: %v", err)
	}
	if got, err := fs.ReadFile("/b/sub/f"); err != nil || string(got) != "1" {
		t.Errorf("moved dir content: %q, %v", got, err)
	}
}

func TestReadDirListsSorted(t *testing.T) {
	fs := newFS(t)
	for _, n := range []string{"/c", "/a", "/b"} {
		if err := fs.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 3 || ents[0].Name != "a" || ents[2].Name != "c" {
		t.Errorf("ReadDir = %+v", ents)
	}
	if _, err := fs.ReadDir("/a"); !errors.Is(err, ErrNotDir) {
		t.Errorf("ReadDir(file) err = %v", err)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	// Force directory growth past one block.
	fs := newFS(t)
	if err := fs.Mkdir("/many"); err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := fs.Create(fmt.Sprintf("/many/file-%03d-with-a-longer-name", i)); err != nil {
			t.Fatalf("Create #%d: %v", i, err)
		}
	}
	ents, err := fs.ReadDir("/many")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Errorf("ReadDir lists %d entries, want %d", len(ents), n)
	}
	// Delete every other one, then verify.
	for i := 0; i < n; i += 2 {
		if err := fs.Remove(fmt.Sprintf("/many/file-%03d-with-a-longer-name", i)); err != nil {
			t.Fatalf("Remove #%d: %v", i, err)
		}
	}
	ents, _ = fs.ReadDir("/many")
	if len(ents) != n/2 {
		t.Errorf("after deletions %d entries, want %d", len(ents), n/2)
	}
}

func TestPathValidation(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("relative"); err == nil {
		t.Error("relative path: want error")
	}
	if _, _, err := fs.resolve("/a/../b/./c"); !errors.Is(err, ErrNotFound) {
		t.Errorf("normalized resolve err = %v", err)
	}
	long := "/" + string(bytes.Repeat([]byte{'x'}, MaxNameLen+1))
	if err := fs.Create(long); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("long name err = %v", err)
	}
}

func TestNoSpace(t *testing.T) {
	dev, _ := blockdev.NewMemDisk(512, 2048) // 1 MiB
	fs, err := Mkfs(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = nil
	for i := 0; err == nil && i < 10000; i++ {
		err = fs.WriteFile(fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{1}, 64*1024))
	}
	if !errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrFileTooBig) {
		t.Errorf("filling device: err = %v, want ErrNoSpace", err)
	}
}

func TestDumpView(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/mnt/box"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mnt/box/1.img", bytes.Repeat([]byte{1}, 8192)); err != nil {
		t.Fatal(err)
	}
	v, err := fs.Dump()
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	byPath := make(map[string]FileRecord)
	for _, f := range v.Files {
		byPath[f.Path] = f
	}
	if _, ok := byPath["/"]; !ok {
		t.Error("view missing root")
	}
	img, ok := byPath["/mnt/box/1.img"]
	if !ok {
		t.Fatal("view missing file")
	}
	if img.Size != 8192 || len(img.Blocks) != 2 {
		t.Errorf("file record = %+v", img)
	}
	if img.Type != TypeFile {
		t.Errorf("file type = %v", img.Type)
	}
	if v.String() == "" {
		t.Error("View.String empty")
	}
	// Classification of the file's data blocks.
	class, _ := fs.sb.Classify(img.Blocks[0], v.Groups)
	if class != ClassData {
		t.Errorf("data block classified as %v", class)
	}
	class, _ = fs.sb.Classify(0, v.Groups)
	if class != ClassSuperblock {
		t.Errorf("block 0 classified as %v", class)
	}
}

func TestClassifyAllGroups(t *testing.T) {
	fs := newFS(t)
	sb := fs.sb
	geom := fs.geom
	for _, g := range geom {
		if c, grp := sb.Classify(g.BlockBitmap, geom); c != ClassBlockBitmap || grp != g.Index {
			t.Errorf("group %d block bitmap classified %v/%d", g.Index, c, grp)
		}
		if c, _ := sb.Classify(g.InodeBitmap, geom); c != ClassInodeBitmap {
			t.Errorf("group %d inode bitmap classified %v", g.Index, c)
		}
		if c, _ := sb.Classify(g.InodeTable, geom); c != ClassInodeTable {
			t.Errorf("group %d inode table classified %v", g.Index, c)
		}
		if c, _ := sb.Classify(g.DataStart, geom); c != ClassData {
			t.Errorf("group %d data start classified %v", g.Index, c)
		}
	}
}

func TestInodeEncodeDecodeProperty(t *testing.T) {
	f := func(typ uint8, links uint16, size, mtime uint64, directRaw [12]uint32, ind, dbl uint32) bool {
		var direct [12]uint64
		for i, v := range directRaw {
			direct[i] = uint64(v)
		}
		in := Inode{
			Type:           FileType(typ % 3),
			Links:          links,
			Size:           size,
			Mtime:          mtime,
			Ctime:          mtime + 1,
			Direct:         direct,
			Indirect:       uint64(ind),
			DoubleIndirect: uint64(dbl),
		}
		buf := make([]byte, InodeSize)
		in.encode(buf)
		var out Inode
		out.decode(buf)
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFSModelProperty(t *testing.T) {
	// Property: a random sequence of writes/deletes matches a map model.
	type op struct {
		Name byte
		Size uint16
		Del  bool
	}
	f := func(ops []op) bool {
		dev, err := blockdev.NewMemDisk(512, 32768)
		if err != nil {
			return false
		}
		fs, err := Mkfs(dev, Options{})
		if err != nil {
			return false
		}
		model := make(map[string][]byte)
		for _, o := range ops {
			path := fmt.Sprintf("/f%d", o.Name%16)
			if o.Del {
				err := fs.Remove(path)
				_, existed := model[path]
				if existed != (err == nil) {
					return false
				}
				delete(model, path)
				continue
			}
			data := bytes.Repeat([]byte{o.Name}, int(o.Size%8192))
			if err := fs.WriteFile(path, data); err != nil {
				return false
			}
			model[path] = data
		}
		for path, want := range model {
			got, err := fs.ReadFile(path)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSyncAndDeviceAccessors(t *testing.T) {
	fs := newFS(t)
	if err := fs.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
}

func TestSymlink(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/etc/init.d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/etc/init.d/DbSecuritySpt", []byte("#!/bin/bash")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/etc/init.d/DbSecuritySpt", "/etc/S97DbSecuritySpt"); err != nil {
		t.Fatalf("Symlink: %v", err)
	}
	_, in, err := fs.resolve("/etc/S97DbSecuritySpt")
	if err != nil {
		t.Fatal(err)
	}
	blk, err := fs.readBlock(in.Direct[0])
	if got := string(blk[:in.Size]); err != nil || got != "/etc/init.d/DbSecuritySpt" {
		t.Errorf("link target = %q, %v", got, err)
	}
	fi, err := fs.Stat("/etc/S97DbSecuritySpt")
	if err != nil || fi.Type != TypeSymlink {
		t.Errorf("Stat = %+v, %v", fi, err)
	}
	// Symlinks can be removed like files.
	if err := fs.Remove("/etc/S97DbSecuritySpt"); err != nil {
		t.Errorf("Remove(symlink): %v", err)
	}
	// Oversized target rejected.
	if err := fs.Symlink(string(bytes.Repeat([]byte{'x'}, 5000)), "/etc/too-long"); err == nil {
		t.Error("oversized target: want error")
	}
}

func TestCheckCleanFS(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/f", bytes.Repeat([]byte{1}, 100*4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/a/b/f", "/a/l"); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !r.Ok() {
		t.Errorf("clean fs has problems: %v", r.Problems)
	}
	if r.Files != 2 || r.Dirs != 3 {
		t.Errorf("Check counts: %d files, %d dirs", r.Files, r.Dirs)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	fs := newFS(t)
	if err := fs.WriteFile("/f", bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	// Corrupt: clear the file's block bitmap bit behind the fs's back.
	_, in, err := fs.resolve("/f")
	if err != nil {
		t.Fatal(err)
	}
	blk := in.Direct[0]
	if err := fs.freeBlock(blk); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if r.Ok() {
		t.Error("Check missed a cleared bitmap bit")
	}
}

func TestCheckPropertyAfterRandomOps(t *testing.T) {
	type op struct {
		Kind byte
		Name uint8
		Size uint16
	}
	f := func(ops []op) bool {
		dev, err := blockdev.NewMemDisk(512, 32768)
		if err != nil {
			return false
		}
		fs, err := Mkfs(dev, Options{})
		if err != nil {
			return false
		}
		if err := fs.Mkdir("/d"); err != nil {
			return false
		}
		for _, o := range ops {
			p := fmt.Sprintf("/d/f%d", o.Name%12)
			switch o.Kind % 3 {
			case 0:
				_ = fs.WriteFile(p, bytes.Repeat([]byte{1}, int(o.Size%20000)))
			case 1:
				_ = fs.Remove(p)
			case 2:
				_ = fs.Rename(p, fmt.Sprintf("/d/g%d", o.Name%12))
			}
		}
		r, err := fs.Check()
		return err == nil && r.Ok()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

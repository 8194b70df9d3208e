package semantic

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extfs"
)

// tapDevice feeds every block access to a reconstructor, exactly as the
// storage monitor middle-box observes intercepted traffic.
type tapDevice struct {
	dev blockdev.Device
	r   *Reconstructor
	// mute suppresses tapping during setup.
	mute bool
}

func (d *tapDevice) BlockSize() int { return d.dev.BlockSize() }
func (d *tapDevice) Blocks() uint64 { return d.dev.Blocks() }

func (d *tapDevice) ReadAt(p []byte, lba uint64) error {
	if err := d.dev.ReadAt(p, lba); err != nil {
		return err
	}
	if !d.mute {
		d.r.OnAccess(false, lba, nil, len(p))
	}
	return nil
}

func (d *tapDevice) WriteAt(p []byte, lba uint64) error {
	if err := d.dev.WriteAt(p, lba); err != nil {
		return err
	}
	if !d.mute {
		d.r.OnAccess(true, lba, p, len(p))
	}
	return nil
}

func (d *tapDevice) Flush() error { return d.dev.Flush() }
func (d *tapDevice) Close() error { return d.dev.Close() }

// setup builds the Table I scenario: a volume formatted with extfs holding
// /mnt/box/name0..name9 each with 1.img..10.img, an initial view, and a
// tapped re-mount.
func setup(t *testing.T) (*extfs.FS, *Reconstructor) {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 262144) // 128 MiB
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mkfs(disk, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/mnt/box"); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 10; d++ {
		dir := fmt.Sprintf("/mnt/box/name%d", d)
		if err := fs.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for f := 1; f <= 10; f++ {
			if err := fs.WriteFile(fmt.Sprintf("%s/%d.img", dir, f), bytes.Repeat([]byte{byte(f)}, 4096)); err != nil {
				t.Fatal(err)
			}
		}
	}
	view, err := fs.Dump()
	if err != nil {
		t.Fatal(err)
	}
	r := New(view)
	tap := &tapDevice{dev: disk, r: r}
	fs2, err := extfs.Mount(tap)
	if err != nil {
		t.Fatal(err)
	}
	return fs2, r
}

func eventsContain(evs []Event, typ EventType, pathSub string) bool {
	for _, e := range evs {
		if e.Type == typ && strings.Contains(e.Path, pathSub) {
			return true
		}
	}
	return false
}

func TestReconstructFileRead(t *testing.T) {
	fs, r := setup(t)
	if _, err := fs.ReadFile("/mnt/box/name9/7.img"); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if !eventsContain(evs, EvRead, "/mnt/box/name9/7.img") {
		t.Errorf("no read event for the file; got:\n%s", renderEvents(evs))
	}
}

func TestReconstructFileWriteWithSize(t *testing.T) {
	fs, r := setup(t)
	if err := fs.WriteAt("/mnt/box/name9/7.img", bytes.Repeat([]byte{9}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	var found bool
	for _, e := range evs {
		if e.Type == EvWrite && e.Path == "/mnt/box/name9/7.img" && e.Size == 4096 {
			found = true
		}
	}
	if !found {
		t.Errorf("no 4096-byte write event; got:\n%s", renderEvents(evs))
	}
}

func TestReconstructDirectoryListing(t *testing.T) {
	fs, r := setup(t)
	if _, err := fs.ReadDir("/mnt/box"); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	// The paper logs directory-entry reads as "<dir>/." and the inode
	// metadata reads as "META: inode_group_N".
	if !eventsContain(evs, EvRead, "/mnt/box/.") {
		t.Errorf("no directory-dot read; got:\n%s", renderEvents(evs))
	}
	if !eventsContain(evs, EvMetaRead, "inode_group_") {
		t.Errorf("no inode table read; got:\n%s", renderEvents(evs))
	}
}

func TestReconstructCreate(t *testing.T) {
	fs, r := setup(t)
	if err := fs.WriteFile("/mnt/box/name1/new.img", bytes.Repeat([]byte{1}, 16384)); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if !eventsContain(evs, EvCreate, "/mnt/box/name1/new.img") {
		t.Fatalf("no create event; got:\n%s", renderEvents(evs))
	}
	// A fresh read attributes data blocks to the new path.
	if _, err := fs.ReadFile("/mnt/box/name1/new.img"); err != nil {
		t.Fatal(err)
	}
	if !eventsContain(r.Events(), EvRead, "/mnt/box/name1/new.img") {
		t.Error("data blocks of the new file not attributed")
	}
}

func TestReconstructDelete(t *testing.T) {
	fs, r := setup(t)
	if err := fs.Remove("/mnt/box/name2/3.img"); err != nil {
		t.Fatal(err)
	}
	if !eventsContain(r.Events(), EvDelete, "/mnt/box/name2/3.img") {
		t.Errorf("no delete event; got:\n%s", renderEvents(r.Events()))
	}
}

func TestReconstructRename(t *testing.T) {
	fs, r := setup(t)
	if err := fs.Rename("/mnt/box/name3/4.img", "/mnt/box/name3/renamed.img"); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range r.Events() {
		if e.Type == EvRename && e.OldPath == "/mnt/box/name3/4.img" && e.Path == "/mnt/box/name3/renamed.img" {
			found = true
		}
	}
	if !found {
		t.Errorf("no rename event; got:\n%s", renderEvents(r.Events()))
	}
	// No spurious delete for the renamed file.
	if eventsContain(r.Events(), EvDelete, "4.img") {
		t.Error("rename misdetected as delete")
	}
}

func TestReconstructRenameAcrossDirs(t *testing.T) {
	fs, r := setup(t)
	if err := fs.Rename("/mnt/box/name4/5.img", "/mnt/box/name5/moved.img"); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range r.Events() {
		if e.Type == EvRename && e.Path == "/mnt/box/name5/moved.img" {
			found = true
		}
	}
	if !found {
		t.Errorf("cross-dir rename missed; got:\n%s", renderEvents(r.Events()))
	}
}

func TestReconstructDirRenameRepathsChildren(t *testing.T) {
	fs, r := setup(t)
	if err := fs.Rename("/mnt/box/name6", "/mnt/box/renamed-dir"); err != nil {
		t.Fatal(err)
	}
	// Reading a child must resolve under the new directory path.
	if _, err := fs.ReadFile("/mnt/box/renamed-dir/1.img"); err != nil {
		t.Fatal(err)
	}
	if !eventsContain(r.Events(), EvRead, "/mnt/box/renamed-dir/1.img") {
		t.Errorf("child path not updated after dir rename; got:\n%s", renderEvents(r.Events()))
	}
}

func TestReconstructMkdir(t *testing.T) {
	fs, r := setup(t)
	if err := fs.Mkdir("/mnt/box/newdir"); err != nil {
		t.Fatal(err)
	}
	if !eventsContain(r.Events(), EvCreate, "/mnt/box/newdir") {
		t.Errorf("no create event for directory; got:\n%s", renderEvents(r.Events()))
	}
}

// TestPathOfLookup: the block -> file table (the paper's hash table for
// IDS-style queries) maps a known file's data block to that file's path,
// and knows nothing of a block no file owns.
func TestPathOfLookup(t *testing.T) {
	_, r := setup(t)
	var blk uint64
	for _, f := range r.view.Files {
		if f.Path == "/mnt/box/name0/1.img" && len(f.Blocks) > 0 {
			blk = f.Blocks[0]
		}
	}
	if blk == 0 {
		t.Fatal("test setup: file block not found in view")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ino, ok := r.blockOwner[blk]
	if m := r.inodes[ino]; !ok || m == nil || m.path != "/mnt/box/name0/1.img" {
		t.Errorf("block %d: owner %d (%v), want /mnt/box/name0/1.img", blk, ino, ok)
	}
	if _, ok := r.blockOwner[1<<40]; ok {
		t.Error("unowned block has an owner")
	}
}

func TestEventCallbackOrdering(t *testing.T) {
	fs, r := setup(t)
	var seen []Event
	r.OnEvent(func(e Event) { seen = append(seen, e) })
	if err := fs.WriteFile("/mnt/box/name7/cb.img", bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("callback never fired")
	}
	if len(seen) != len(r.Events())-0 && len(seen) > len(r.Events()) {
		t.Errorf("callback count %d vs retained %d", len(seen), len(r.Events()))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Seq < seen[i-1].Seq {
			t.Error("events out of order")
		}
	}
}

func TestEventStringFormats(t *testing.T) {
	e := Event{Seq: 72, Type: EvWrite, Path: "/mnt/box/name9/7.img", Size: 16384}
	if got := e.String(); !strings.Contains(got, "write") || !strings.Contains(got, "16384") {
		t.Errorf("String() = %q", got)
	}
	ren := Event{Seq: 1, Type: EvRename, OldPath: "/a", Path: "/b"}
	if got := ren.String(); !strings.Contains(got, "/a -> /b") {
		t.Errorf("rename String() = %q", got)
	}
	bare := Event{Seq: 2, Type: EvCreate, Path: "/c"}
	if got := bare.String(); !strings.Contains(got, "create /c") {
		t.Errorf("create String() = %q", got)
	}
}

func TestSyntheticTableIScenario(t *testing.T) {
	// Table II's two operations: write name1/1.img, read name9/7.img —
	// reconstructed into the Table I style log.
	fs, r := setup(t)
	if err := fs.WriteAt("/mnt/box/name1/1.img", bytes.Repeat([]byte{7}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/mnt/box/name9/7.img"); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if !eventsContain(evs, EvWrite, "/mnt/box/name1/1.img") {
		t.Errorf("missing write reconstruction:\n%s", renderEvents(evs))
	}
	if !eventsContain(evs, EvRead, "/mnt/box/name9/7.img") {
		t.Errorf("missing read reconstruction:\n%s", renderEvents(evs))
	}
	// The low-level trace contains directory and inode metadata accesses
	// interleaved, like Table I.
	if !eventsContain(evs, EvRead, "/.") && !eventsContain(evs, EvMetaRead, "inode_group_") {
		t.Errorf("no metadata context events:\n%s", renderEvents(evs))
	}
}

func renderEvents(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintln(&b, e.String())
	}
	return b.String()
}

func TestBlockReuseTransfersAttribution(t *testing.T) {
	fs, r := setup(t)
	// Delete a file and create a new one; the freed blocks are typically
	// reused. Accesses must attribute to the NEW file, never the old one.
	if err := fs.Remove("/mnt/box/name0/1.img"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mnt/box/name5/fresh.img", bytes.Repeat([]byte{9}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/mnt/box/name5/fresh.img"); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	for _, e := range evs {
		if (e.Type == EvRead || e.Type == EvWrite) && strings.Contains(e.Path, "name0/1.img") {
			// Accesses after the delete must not resolve to the dead file.
			if e.Seq > evs[0].Seq {
				var deleted bool
				for _, d := range evs {
					if d.Type == EvDelete && strings.Contains(d.Path, "name0/1.img") && d.Seq < e.Seq {
						deleted = true
					}
				}
				if deleted {
					t.Errorf("stale attribution after reuse: %s", e.String())
				}
			}
		}
	}
	if !eventsContain(evs, EvRead, "fresh.img") {
		t.Errorf("new file's reads not attributed:\n%s", renderEvents(evs))
	}
}

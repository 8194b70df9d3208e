package semantic

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extfs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenScript is a seeded extfs session touching every namespace path the
// Update phase recovers: mkdir, create, append, rename within and across
// directories, delete, a directory rename with children, and a directory
// grown past one block.
func goldenScript(fs *extfs.FS) error {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	steps := []func() error{
		func() error { return fs.Mkdir("/a/sub") },
		func() error { return fs.WriteFile("/a/sub/x", fill(5000, 1)) },
		func() error { return fs.Create("/b/empty") },
		func() error { return fs.Append("/a/sub/x", fill(3000, 2)) },
		func() error { return fs.Rename("/a/sub/x", "/a/sub/y") },
		func() error { return fs.Rename("/a/old.txt", "/b/old.txt") },
		func() error { return fs.Remove("/b/empty") },
		func() error { return fs.Mkdir("/a/d2") },
		func() error { return fs.WriteFile("/a/d2/c1", fill(4096, 3)) },
		func() error { return fs.WriteFile("/a/d2/c2", fill(100, 4)) },
		func() error { return fs.Rename("/a/d2", "/b/d2") },
		func() error { _, err := fs.ReadFile("/b/d2/c1"); return err },
		func() error { return fs.Mkdir("/big") },
	}
	// 68-byte records: 60 fit one 4 KiB block, so the directory grows.
	long := func(i int) string { return fmt.Sprintf("/big/%03d-%s", i, strings.Repeat("n", 56)) }
	for i := 0; i < 80; i++ {
		steps = append(steps, func() error { return fs.Create(long(i)) })
	}
	for _, i := range []int{3, 10, 70} {
		steps = append(steps, func() error { return fs.Remove(long(i)) })
	}
	steps = append(steps,
		func() error { return fs.Rename(long(75), "/big/renamed") },
		func() error { return fs.Rename(long(20), "/a/sub/from-big") },
		func() error { _, err := fs.ReadDir("/big"); return err },
		func() error { return fs.WriteFile("/big/renamed", fill(9000, 5)) },
	)
	for n, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("step %d: %w", n, err)
		}
	}
	return nil
}

// goldenSetup formats a volume with a small starting tree, builds the
// reconstructor from its view and returns the file system re-mounted
// through a tap.
func goldenSetup(t testing.TB) (*extfs.FS, *Reconstructor, *tapDevice) {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 65536)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mkfs(disk, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/a", "/b"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/a/old.txt", bytes.Repeat([]byte{7}, 6000)); err != nil {
		t.Fatal(err)
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
	return fs2, r, tap
}

func goldenLine(e Event) string {
	return fmt.Sprintf("%d\t%d\t%s\t%d\t%s", e.Seq, e.Type, e.Path, e.Size, e.OldPath)
}

// bySeq groups rendered events by access, each group sorted: within one
// access the order is not part of the contract.
func bySeq(lines []string) map[uint64][]string {
	out := make(map[uint64][]string)
	for _, l := range lines {
		seq, err := strconv.ParseUint(strings.SplitN(l, "\t", 2)[0], 10, 64)
		if err != nil {
			continue
		}
		out[seq] = append(out[seq], l)
	}
	for _, g := range out {
		sort.Strings(g)
	}
	return out
}

// TestGoldenEventLog replays the golden script and compares the
// reconstructed log with the one recorded before the Update phase diffed in
// place, per access as multisets. Regenerate with -update-golden only when
// the log is meant to change.
func TestGoldenEventLog(t *testing.T) {
	fs, r, _ := goldenSetup(t)
	if err := goldenScript(fs); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range r.Events() {
		got = append(got, goldenLine(e))
	}
	golden := filepath.Join("testdata", "golden_events.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("log has %d events, golden %d", len(got), len(want))
	}
	g, w := bySeq(got), bySeq(want)
	var bad []uint64
	for seq := range w {
		if strings.Join(g[seq], "\n") != strings.Join(w[seq], "\n") {
			bad = append(bad, seq)
		}
	}
	for seq := range g {
		if _, ok := w[seq]; !ok {
			bad = append(bad, seq)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	for i, seq := range bad {
		if i == 5 {
			t.Errorf("... %d accesses differ in all", len(bad))
			break
		}
		t.Errorf("access %d:\n got  %q\n want %q", seq, g[seq], w[seq])
	}
}

// TestConcurrentAccessViews feeds accesses from several goroutines while
// each reads back the slice OnAccess returned and a callback reads every
// event: the returned views alias the retained log, which later accesses
// keep appending to. Run with -race.
func TestConcurrentAccessViews(t *testing.T) {
	fs, r, _ := goldenSetup(t)
	if err := goldenScript(fs); err != nil {
		t.Fatal(err)
	}
	var seen sync.Map
	r.OnEvent(func(e Event) { seen.Store(e.Seq, e.Path) })
	var blocks []uint64
	for b := range r.blockOwner {
		blocks = append(blocks, b)
	}
	spb := uint64(r.view.SectorsPerBlock)
	data := make([]byte, r.view.BlockSize)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				blk := blocks[(g*131+i)%len(blocks)]
				var evs []Event
				if i%2 == 0 {
					evs = r.OnAccess(true, blk*spb, data, len(data))
				} else {
					evs = r.OnAccess(false, blk*spb, nil, len(data))
				}
				for _, e := range evs {
					if e.Seq == 0 || e.Path == "" {
						t.Errorf("torn event %+v", e)
						return
					}
				}
				// Appending to a view must copy, never write into the log.
				if evs = append(evs, Event{Seq: 1}); len(evs) == 0 {
					t.Error("append lost the event")
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	seen.Range(func(any, any) bool { n++; return true })
	if n == 0 {
		t.Fatal("the callback saw no event")
	}
	for _, e := range r.Events() {
		if e.Seq == 0 || e.Path == "" {
			t.Fatalf("log holds a torn event %+v", e)
		}
	}
}

package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// maxFuzzSegmentBytes bounds each fuzzed segment: the scan is linear, and
// every shape Open judges fits in a few records.
const maxFuzzSegmentBytes = 16 << 10

// FuzzWALOpen hands Open one final segment of arbitrary bytes, or (pair) a
// non-final and a final one. Open must refuse it with a typed error
// (ErrCorrupt, ErrNoSegments) or return a log that, closed and opened
// again, gives back the same records with no torn tail.
func FuzzWALOpen(f *testing.F) {
	for _, segs := range fuzzSeeds(f) {
		f.Add(false, segs[len(segs)-1], []byte(nil))
		for i := 1; i < len(segs); i++ {
			f.Add(true, segs[i-1], segs[i])
		}
	}
	f.Fuzz(func(t *testing.T, pair bool, a, b []byte) {
		if len(a) > maxFuzzSegmentBytes || len(b) > maxFuzzSegmentBytes {
			t.Skip()
		}
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		segs := [][]byte{a}
		if pair {
			segs = append(segs, b)
		}
		for i, seg := range segs {
			if err := os.WriteFile(segPath(dir, i), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, rec, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoSegments) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		l, again, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen of a log Open accepted: %v", err)
		}
		defer l.Close()
		if again.Torn {
			t.Fatal("reopen after Close reports a torn tail")
		}
		if len(again.Records) != len(rec.Records) {
			t.Fatalf("reopen recovered %d records, first open %d", len(again.Records), len(rec.Records))
		}
		for i, r := range rec.Records {
			g := again.Records[i]
			if g.Seq != r.Seq || g.LBA != r.LBA || !bytes.Equal(g.Data, r.Data) {
				t.Fatalf("record %d: seq %d lba %d on reopen, seq %d lba %d first", i, g.Seq, g.LBA, r.Seq, r.LBA)
			}
		}
	})
}

// fuzzSeeds builds logs the way the round-trip tests do and returns each
// one's segment files in order: a single segment with commits, a rotated
// and partly compacted log, and a log killed while its final segment
// reuses a spare, so that segment ends in zeros.
func fuzzSeeds(f *testing.F) [][][]byte {
	var seeds [][][]byte
	build := func(opts Options, drive func(l *Log) error) {
		dir := filepath.Join(f.TempDir(), "seed")
		l, err := Create(dir, testMeta(), opts)
		if err != nil {
			f.Fatal(err)
		}
		if err := drive(l); err != nil {
			f.Fatal(err)
		}
		l.Kill()
		idx, err := listSegments(dir)
		if err != nil {
			f.Fatal(err)
		}
		var segs [][]byte
		for _, i := range idx {
			b, err := os.ReadFile(segPath(dir, i))
			if err != nil {
				f.Fatal(err)
			}
			segs = append(segs, b)
		}
		seeds = append(seeds, segs)
	}
	appendCommit := func(n, size int, commit func(i int) bool) func(l *Log) error {
		return func(l *Log) error {
			for i := 0; i < n; i++ {
				seq, err := l.Append(uint64(i*8), bytes.Repeat([]byte{byte('a' + i%26)}, size+i))
				if err != nil {
					return err
				}
				if commit(i) {
					if err := l.Commit(seq); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	build(Options{}, appendCommit(10, 64, func(i int) bool { return i%2 == 0 }))
	build(Options{SegmentBytes: 256}, appendCommit(20, 40, func(i int) bool { return i < 12 }))
	build(Options{SegmentBytes: 512}, func(l *Log) error {
		kept := false
		for !l.recycled() {
			seq, err := l.Append(0, bytes.Repeat([]byte{'r'}, 60))
			if err != nil {
				return err
			}
			if l.curSegment() == 1 && !kept {
				kept = true // one uncommitted append keeps segment 1 in the log
				continue
			}
			if err := l.Commit(seq); err != nil {
				return err
			}
		}
		return appendCommit(2, 30, func(int) bool { return false })(l)
	})
	if last := seeds[len(seeds)-1]; len(last) < 2 || !bytes.HasSuffix(last[len(last)-1], make([]byte, 64)) {
		f.Fatal("seed: the recycled log's final segment does not end in zeros")
	}
	return seeds
}

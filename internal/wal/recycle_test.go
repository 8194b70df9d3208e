package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// curSegment returns the index of the segment appends go to.
func (l *Log) curSegment() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curSeg
}

// recycled reports whether the current segment's file runs past its
// records: a reused spare's zero residue.
func (l *Log) recycled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curFile > l.curSize
}

// hasSpare reports whether the log holds a retired segment ready for reuse.
func (l *Log) hasSpare() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spare != nil
}

// statSeg stats segment idx of the log in dir.
func statSeg(t *testing.T, dir string, idx int) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(segPath(dir, idx))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// crashImage copies every file of the log in dir into a fresh directory, as
// a process killed at this instant would leave them, and returns it.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	img := filepath.Join(t.TempDir(), "crash")
	if err := os.Mkdir(img, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// sameRecords fails unless got holds exactly the records of want, in order.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].LBA != want[i].LBA || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: record %d is seq %d lba %d, want seq %d lba %d (or its data differs)",
				what, i, got[i].Seq, got[i].LBA, want[i].Seq, want[i].LBA)
		}
	}
}

// TestKillAfterEveryAppendAcrossRecycledLaps keeps a few appends uncommitted
// while segments rotate through the spare, and after every append opens a
// copy of the directory as a crash at that instant would leave it. Each
// copy must open without ErrCorrupt and give back exactly the acknowledged,
// uncommitted appends, once each — also while the final segment is a reused
// file whose zero residue trails the records.
func TestKillAfterEveryAppendAcrossRecycledLaps(t *testing.T) {
	l, dir := mustCreate(t, Options{SegmentBytes: 1024})
	defer l.Close()
	var files []os.FileInfo // the distinct files segments have lived in
	uses := map[int]int{}   // index into files -> segments it has held
	seg := -1
	var open []Record
	torn := 0
	for i := 0; i < 400; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 40+i%90)
		seq, err := l.Append(uint64(i), data)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		open = append(open, Record{Seq: seq, LBA: uint64(i), Data: data})
		if len(open) > 3 {
			if err := l.Commit(open[0].Seq); err != nil {
				t.Fatal(err)
			}
			open = open[1:]
		}
		if cur := l.curSegment(); cur != seg {
			seg = cur
			fi := statSeg(t, dir, cur)
			k := 0
			for k < len(files) && !os.SameFile(files[k], fi) {
				k++
			}
			if k == len(files) {
				files = append(files, fi)
			}
			uses[k]++
		}

		img := crashImage(t, dir)
		re, rec, err := Open(img, Options{SegmentBytes: 1024})
		if err != nil {
			t.Fatalf("crash after append %d (segment %d): %v", i, seg, err)
		}
		re.Kill()
		if rec.Torn {
			torn++
		}
		sameRecords(t, "crash image", rec.Records, open)
	}
	laps := 0
	for _, n := range uses {
		laps = max(laps, n-1)
	}
	if laps < 3 {
		t.Fatalf("the most reused segment file was recycled %d times, want >= 3 (%d files for %d segments)", laps, len(files), seg+1)
	}
	if torn == 0 {
		t.Fatal("no crash image ended in a reused segment's zero residue")
	}
}

// TestReopenRecycledNonFinalSegment: a segment that reused the spare and
// then rotated away must have been cut back to its records, or Open finds
// zeros inside a non-final segment and refuses the log as corrupt.
func TestReopenRecycledNonFinalSegment(t *testing.T) {
	l, dir := mustCreate(t, Options{SegmentBytes: 1024})
	first := statSeg(t, dir, 0)
	data := bytes.Repeat([]byte{7}, 100)
	// Commit as we go until segment 0 has been retired and reused as 2.
	for l.curSegment() < 2 {
		seq, err := l.Append(0, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if !os.SameFile(first, statSeg(t, dir, 2)) {
		t.Fatal("setup: segment 2 is not segment 0's file reused")
	}
	// One small append nobody commits, then one too big for the rest of
	// segment 2, so it rotates away with most of its file past its records.
	var open []Record
	for i, d := range [][]byte{data, bytes.Repeat([]byte{8}, 900)} {
		seq, err := l.Append(uint64(i+1), d)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, Record{Seq: seq, LBA: uint64(i + 1), Data: d})
	}
	if l.curSegment() != 3 {
		t.Fatalf("setup: segment %d is current, want 3", l.curSegment())
	}
	l.Kill()

	re, rec, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("open with a reused non-final segment: %v", err)
	}
	sameRecords(t, "after kill", rec.Records, open)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec, err = Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	defer re.Close()
	if rec.Torn {
		t.Fatal("a log reopened after Close reports a torn tail")
	}
	sameRecords(t, "after close", rec.Records, open)
}

// refuseQuota refuses the charges refuse picks and admits the rest.
type refuseQuota struct{ refuse func() bool }

func (q *refuseQuota) Consume(uint64) error {
	if q.refuse() {
		return errors.New("refused")
	}
	return nil
}

func (q *refuseQuota) Release(uint64) {}

// TestKillBetweenSpareRenameAndMeta: a crash after the spare was renamed
// into place as the next segment, before its meta record, leaves a final
// segment of nothing but zeros. Open takes that for a torn tail, and the
// acknowledged appends in the segments before it all come back.
func TestKillBetweenSpareRenameAndMeta(t *testing.T) {
	var l *Log
	armed := false
	// Consume runs under l.mu, so it may read the log's state: an empty
	// segment in a file that already has bytes is the renamed spare.
	q := &refuseQuota{refuse: func() bool { return armed && l.curSize == 0 && l.curFile > 0 }}
	l, dir := mustCreate(t, Options{SegmentBytes: 1024, Quota: q})
	data := bytes.Repeat([]byte{3}, 100)
	for !l.hasSpare() {
		seq, err := l.Append(0, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	var open []Record
	armed = true
	seg := l.curSegment()
	for i := uint64(1); ; i++ {
		seq, err := l.Append(i, data)
		if err != nil {
			if !errors.Is(err, ErrWALFull) {
				t.Fatalf("append refused at the meta record: %v, want ErrWALFull", err)
			}
			break
		}
		open = append(open, Record{Seq: seq, LBA: i, Data: data})
	}
	if l.curSegment() != seg+1 {
		t.Fatalf("setup: the refused append left segment %d current, want %d", l.curSegment(), seg+1)
	}
	img, err := os.ReadFile(segPath(dir, seg+1))
	if err != nil {
		t.Fatal(err)
	}
	if len(img) == 0 || !allZero(img) {
		t.Fatalf("setup: segment %d is not a zero-filled spare (%d bytes)", seg+1, len(img))
	}
	l.Kill()

	re, rec, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("open after a kill between the spare's rename and its meta: %v", err)
	}
	if !rec.Torn {
		t.Fatal("a zero-filled final segment was not treated as a torn tail")
	}
	if rec.Meta.Attrs["iqn"] != testMeta().Attrs["iqn"] {
		t.Fatalf("meta lost: %+v", rec.Meta)
	}
	sameRecords(t, "after kill", rec.Records, open)
	if _, err := re.Append(99, data); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec, err = Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.Torn || len(rec.Records) != len(open)+1 {
		t.Fatalf("reopen after close: torn %v, %d records, want untorn with %d", rec.Torn, len(rec.Records), len(open)+1)
	}
}

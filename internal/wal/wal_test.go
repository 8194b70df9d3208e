package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testMeta() Meta {
	return Meta{Attrs: map[string]string{"iqn": "iqn.test:vol0", "next": "10.0.0.9:3260"}}
}

func mustCreate(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Create(dir, testMeta(), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return l, dir
}

func TestAppendCommitRoundTrip(t *testing.T) {
	l, dir := mustCreate(t, Options{})
	type w struct {
		lba  uint64
		data []byte
	}
	var writes []w
	var seqs []uint64
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 64+i)
		seq, err := l.Append(uint64(i*8), data)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if len(seqs) > 0 && seq <= seqs[len(seqs)-1] {
			t.Fatalf("seq not monotonic: %d after %d", seq, seqs[len(seqs)-1])
		}
		writes = append(writes, w{uint64(i * 8), data})
		seqs = append(seqs, seq)
	}
	// Commit the even ones; the odd ones must survive recovery.
	for i, seq := range seqs {
		if i%2 == 0 {
			if err := l.Commit(seq); err != nil {
				t.Fatalf("Commit %d: %v", seq, err)
			}
		}
	}
	if got := l.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	l.Kill()

	re, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if rec.Torn {
		t.Fatalf("clean log reported torn")
	}
	if rec.Meta.Attrs["iqn"] != "iqn.test:vol0" {
		t.Fatalf("meta lost: %+v", rec.Meta)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		wi := 2*i + 1 // odd writes, in seq order
		if r.Seq != seqs[wi] || r.LBA != writes[wi].lba || !bytes.Equal(r.Data, writes[wi].data) {
			t.Fatalf("record %d = {seq %d lba %d %q}, want {seq %d lba %d %q}",
				i, r.Seq, r.LBA, r.Data, seqs[wi], writes[wi].lba, writes[wi].data)
		}
	}
	// New appends continue the sequence past everything recovered.
	seq, err := re.Append(0, []byte("after"))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if seq <= seqs[len(seqs)-1] {
		t.Fatalf("reopened log reused seq %d (max was %d)", seq, seqs[len(seqs)-1])
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	l, dir := mustCreate(t, Options{SegmentBytes: 256})
	var seqs []uint64
	for i := 0; i < 20; i++ {
		seq, err := l.Append(uint64(i), bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		seqs = append(seqs, seq)
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", got)
	}
	before := l.Segments()
	for _, seq := range seqs {
		if err := l.Commit(seq); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("compaction left %d segments (from %d), want 1", got, before)
	}
	// The compacted log must still carry its meta and recover cleanly.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, rec, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open after compaction: %v", err)
	}
	defer re.Close()
	if rec.Meta.Attrs["iqn"] != "iqn.test:vol0" {
		t.Fatalf("meta lost after compaction: %+v", rec.Meta)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("fully committed log recovered %d records", len(rec.Records))
	}
	if seq, err := re.Append(7, []byte("x")); err != nil || seq <= seqs[len(seqs)-1] {
		t.Fatalf("append after compaction: seq %d err %v (max was %d)", seq, err, seqs[len(seqs)-1])
	}
}

func TestCommitSurvivingCompactionIsIgnoredOnOpen(t *testing.T) {
	// A commit record can land in a newer segment than its append; once
	// compaction removes the append's segment the commit is an orphan the
	// recovery scan must tolerate (the write was applied — nothing to do).
	l, dir := mustCreate(t, Options{SegmentBytes: 200})
	seq1, err := l.Append(0, bytes.Repeat([]byte{1}, 150))
	if err != nil {
		t.Fatal(err)
	}
	// Force rotation so the commit for seq1 lands in segment 1.
	seq2, err := l.Append(8, bytes.Repeat([]byte{2}, 150))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq1); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec, err := Open(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d records from fully committed log", len(rec.Records))
	}
}

// TestCommitTriggeredRotationCompactionReopens is the regression test for a
// recovery bug: when a commit record itself triggers segment rotation, the
// new segment opens with meta + that commit, and once the older segments
// compact away the surviving log legitimately starts with a commit whose
// seq is below the next surviving append. Open must not mistake that shape
// for an append-seq gap.
func TestCommitTriggeredRotationCompactionReopens(t *testing.T) {
	// Sizes tuned so both appends fit segment 0 and the first commit record
	// overflows it; the intermediate Segments() assertions fail loudly if
	// the framing arithmetic ever drifts.
	l, dir := mustCreate(t, Options{SegmentBytes: 256})
	seq1, err := l.Append(0, bytes.Repeat([]byte{1}, 66))
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := l.Append(8, bytes.Repeat([]byte{2}, 66))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("setup: both appends must share segment 0, Segments = %d", got)
	}
	// The commit record overflows segment 0: rotation puts meta + commit(1)
	// at the head of segment 1.
	if err := l.Commit(seq1); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 2 {
		t.Fatalf("setup: commit must trigger rotation, Segments = %d", got)
	}
	seq3, err := l.Append(16, []byte("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	// Committing seq2 fully applies segment 0, which compacts away; the
	// surviving segment now reads meta, commit(1), append(3), commit(2).
	if err := l.Commit(seq2); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("setup: compaction must drop segment 0, Segments = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, rec, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open after commit-triggered rotation + compaction: %v", err)
	}
	defer re.Close()
	if len(rec.Records) != 1 || rec.Records[0].Seq != seq3 || string(rec.Records[0].Data) != "survivor" {
		t.Fatalf("recovered %+v, want only seq %d", rec.Records, seq3)
	}
	// New appends resume above everything ever written.
	if seq, err := re.Append(24, []byte("next")); err != nil || seq != seq3+1 {
		t.Fatalf("append after reopen: seq %d err %v, want seq %d", seq, err, seq3+1)
	}
}

// TestAppendWriteErrorDoesNotBurnSeq: a failed record write must not consume
// a sequence number, or the next successful append would leave an on-disk
// append-seq gap that Open rejects as corruption.
func TestAppendWriteErrorDoesNotBurnSeq(t *testing.T) {
	l, _ := mustCreate(t, Options{})
	if _, err := l.Append(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Sabotage the segment file handle so the next record write fails.
	l.mu.Lock()
	f, want := l.f, l.nextSeq
	l.mu.Unlock()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(8, []byte("fails")); err == nil {
		t.Fatal("Append on a closed segment file succeeded")
	}
	l.mu.Lock()
	got := l.nextSeq
	l.mu.Unlock()
	if got != want {
		t.Fatalf("failed append burned a seq: next seq %d, want %d", got+1, want+1)
	}
	if got := l.Pending(); got != 1 {
		t.Fatalf("failed append left bookkeeping: Pending = %d, want 1", got)
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	l, dir := mustCreate(t, Options{})
	var keepData = []byte("survives the crash")
	if _, err := l.Append(40, keepData); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(48, []byte("torn away")); err != nil {
		t.Fatal(err)
	}
	l.Kill()

	seg := segPath(dir, 0)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop off its final 4 bytes.
	if err := os.Truncate(seg, fi.Size()-4); err != nil {
		t.Fatal(err)
	}
	re, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open on torn log: %v", err)
	}
	defer re.Close()
	if !rec.Torn {
		t.Fatalf("torn tail not reported")
	}
	if rec.TruncatedBytes <= 0 {
		t.Fatalf("TruncatedBytes = %d, want > 0", rec.TruncatedBytes)
	}
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0].Data, keepData) {
		t.Fatalf("recovered %+v, want the single intact record", rec.Records)
	}
}

func TestTornZeroFillTailTruncated(t *testing.T) {
	// A torn extension can persist as zero fill past the last record; that
	// is recoverable, not corrupt.
	l, dir := mustCreate(t, Options{})
	if _, err := l.Append(0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	seg := segPath(dir, 0)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 37)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open on zero-filled tail: %v", err)
	}
	defer re.Close()
	if !rec.Torn || len(rec.Records) != 1 {
		t.Fatalf("torn=%v records=%d, want torn with 1 record", rec.Torn, len(rec.Records))
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	l, dir := mustCreate(t, Options{})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(uint64(i), bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	l.Kill()
	seg := segPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the middle of the file — damage with live log after it.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptionInOlderSegmentDetected(t *testing.T) {
	l, dir := mustCreate(t, Options{SegmentBytes: 256})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(uint64(i), bytes.Repeat([]byte{byte(i + 1)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", l.Segments())
	}
	l.Kill()
	// Truncate the FIRST segment — torn-tail handling must not apply there.
	seg := segPath(dir, 0)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{SegmentBytes: 256})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with damaged non-final segment: err = %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitWindowBatchesFsyncs(t *testing.T) {
	l, _ := mustCreate(t, Options{SyncWindow: 2 * time.Millisecond})
	defer l.Close()
	start := l.fsyncs.Value()
	var wg sync.WaitGroup
	const writers = 16
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append(uint64(i*8), []byte("grouped")); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	// All writers launched within one window; far fewer fsyncs than appends.
	if got := l.fsyncs.Value() - start; got >= writers {
		t.Fatalf("window batched nothing: %d fsyncs for %d appends", got, writers)
	}
}

func TestAppendAfterKillFails(t *testing.T) {
	l, _ := mustCreate(t, Options{})
	if _, err := l.Append(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	if _, err := l.Append(8, []byte("no")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Kill: err = %v, want ErrClosed", err)
	}
	if err := l.Commit(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Kill: err = %v, want ErrClosed", err)
	}
}

func TestCreateRefusesExistingLog(t *testing.T) {
	l, dir := mustCreate(t, Options{})
	l.Close()
	if _, err := Create(dir, testMeta(), Options{}); err == nil {
		t.Fatalf("Create over an existing log succeeded")
	}
}

func TestRemoveDeletesDirectory(t *testing.T) {
	l, dir := mustCreate(t, Options{})
	if _, err := l.Append(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("dir still present after Remove: %v", err)
	}
}

func TestConcurrentAppendCommit(t *testing.T) {
	l, dir := mustCreate(t, Options{SegmentBytes: 4 << 10})
	var wg sync.WaitGroup
	const writers, perWriter = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := l.Append(uint64(w*1000+i), []byte{byte(w), byte(i)})
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%2 == 0 {
					if err := l.Commit(seq); err != nil {
						t.Errorf("Commit: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := l.Pending()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, rec, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if len(rec.Records) != want {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), want)
	}
	for i := 1; i < len(rec.Records); i++ {
		if rec.Records[i].Seq <= rec.Records[i-1].Seq {
			t.Fatalf("recovery out of order: %d after %d", rec.Records[i].Seq, rec.Records[i-1].Seq)
		}
	}
}

// TestCorruptionSweep is the satellite fuzz/table test: build a known log,
// then at EVERY byte offset try truncation, a bit flip, and zero fill, and
// require Open to either recover a clean prefix of the original records or
// fail with ErrCorrupt — never panic, never surface a record that was not
// written ("phantom"), never reorder.
func TestCorruptionSweep(t *testing.T) {
	// Reference log: two segments, some commits, known pristine bytes.
	srcDir := filepath.Join(t.TempDir(), "src")
	l, err := Create(srcDir, testMeta(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var reference []Record
	for i := 0; i < 8; i++ {
		data := bytes.Repeat([]byte{byte(0x10 + i)}, 48+i*7)
		seq, err := l.Append(uint64(i*16), data)
		if err != nil {
			t.Fatal(err)
		}
		reference = append(reference, Record{Seq: seq, LBA: uint64(i * 16), Data: data})
	}
	if err := l.Commit(reference[2].Seq); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	segs, err := listSegments(srcDir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want a multi-segment reference log, got %v (%v)", segs, err)
	}
	pristine := make(map[int][]byte)
	for _, s := range segs {
		b, err := os.ReadFile(segPath(srcDir, s))
		if err != nil {
			t.Fatal(err)
		}
		pristine[s] = b
	}
	// Expected surviving set: every append except the committed one. Any
	// recovery must be a prefix-by-content of this (commits may also be
	// lost to damage, which can only ADD records back — so a recovered
	// record is valid if it matches the full uncommitted-append list).
	appends := make(map[uint64]Record)
	for _, r := range reference {
		appends[r.Seq] = r
	}

	restore := func(dir string) {
		for s, b := range pristine {
			if err := os.WriteFile(segPath(dir, s), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, dir, mutation string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Open panicked: %v", mutation, r)
			}
		}()
		lg, rec, err := Open(dir, Options{SegmentBytes: 512})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: Open returned untyped error %v", mutation, err)
			}
			return
		}
		lg.Kill()
		var lastSeq uint64
		for _, r := range rec.Records {
			ref, ok := appends[r.Seq]
			if !ok {
				t.Fatalf("%s: phantom record seq %d", mutation, r.Seq)
			}
			if r.LBA != ref.LBA || !bytes.Equal(r.Data, ref.Data) {
				t.Fatalf("%s: record seq %d content mismatch", mutation, r.Seq)
			}
			if r.Seq <= lastSeq {
				t.Fatalf("%s: records out of order", mutation)
			}
			lastSeq = r.Seq
		}
	}

	workDir := filepath.Join(t.TempDir(), "fuzz")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		orig := pristine[seg]
		for off := 0; off <= len(orig); off++ {
			// Truncate at off.
			restore(workDir)
			if err := os.Truncate(segPath(workDir, seg), int64(off)); err != nil {
				t.Fatal(err)
			}
			check(t, workDir, fmt.Sprintf("seg %d truncate@%d", seg, off))
			if off == len(orig) {
				continue
			}
			// Flip one bit at off.
			restore(workDir)
			mut := append([]byte(nil), orig...)
			mut[off] ^= 1 << (off % 8)
			if err := os.WriteFile(segPath(workDir, seg), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, workDir, fmt.Sprintf("seg %d bitflip@%d", seg, off))
			// Zero-fill from off to EOF.
			restore(workDir)
			mut = append([]byte(nil), orig[:off]...)
			mut = append(mut, make([]byte, len(orig)-off)...)
			if err := os.WriteFile(segPath(workDir, seg), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, workDir, fmt.Sprintf("seg %d zerofill@%d", seg, off))
		}
	}
}

// TestCorruptionRandomized drives the same invariant with random multi-byte
// damage for breadth beyond the systematic sweep.
func TestCorruptionRandomized(t *testing.T) {
	srcDir := filepath.Join(t.TempDir(), "src")
	l, err := Create(srcDir, testMeta(), Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[uint64]Record)
	for i := 0; i < 12; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 30+i*11)
		seq, err := l.Append(uint64(i*32), data)
		if err != nil {
			t.Fatal(err)
		}
		valid[seq] = Record{Seq: seq, LBA: uint64(i * 32), Data: data}
	}
	l.Kill()
	segs, _ := listSegments(srcDir)
	pristine := make(map[int][]byte)
	for _, s := range segs {
		b, _ := os.ReadFile(segPath(srcDir, s))
		pristine[s] = b
	}
	workDir := filepath.Join(t.TempDir(), "fuzz")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		for s, b := range pristine {
			mut := append([]byte(nil), b...)
			for n := rng.Intn(4) + 1; n > 0; n-- {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			if rng.Intn(3) == 0 {
				mut = mut[:rng.Intn(len(mut)+1)]
			}
			if err := os.WriteFile(segPath(workDir, s), mut, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iter %d: Open panicked: %v", iter, r)
				}
			}()
			lg, rec, err := Open(workDir, Options{SegmentBytes: 1 << 10})
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("iter %d: untyped error %v", iter, err)
				}
				return
			}
			lg.Kill()
			var last uint64
			for _, r := range rec.Records {
				ref, ok := valid[r.Seq]
				if !ok || r.LBA != ref.LBA || !bytes.Equal(r.Data, ref.Data) {
					t.Fatalf("iter %d: phantom or mutated record seq %d", iter, r.Seq)
				}
				if r.Seq <= last {
					t.Fatalf("iter %d: out of order", iter)
				}
				last = r.Seq
			}
		}()
	}
}

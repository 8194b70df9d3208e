package wal

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// shortWriteDirEnv tells a re-executed test binary to be the child of
// TestShortWriteIsCutBack, writing its log in the named directory.
const shortWriteDirEnv = "WAL_SHORT_WRITE_DIR"

func shortWriteData(seq uint64) []byte { return bytes.Repeat([]byte{byte(seq)}, 4096) }

// TestShortWriteIsCutBack: write(2) can store part of a record and then
// fail, as it does at ENOSPC. The fragment must not stay in the segment, or
// the next append lands after it and Open refuses the whole log as corrupt.
// A child process appends under RLIMIT_FSIZE with SIGXFSZ ignored, so the
// write past the limit stores what fits and fails with EFBIG; it then
// raises the limit, appends again and closes. Every acknowledged append
// must come back.
func TestShortWriteIsCutBack(t *testing.T) {
	if dir := os.Getenv(shortWriteDirEnv); dir != "" {
		shortWriteChild(t, dir)
		return
	}
	dir := filepath.Join(t.TempDir(), "wal")
	cmd := exec.Command(os.Args[0], "-test.run=^TestShortWriteIsCutBack$", "-test.v")
	cmd.Env = append(os.Environ(), shortWriteDirEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestShortWriteIsCutBack")) {
		t.Fatalf("child: %v\n%s", err, out)
	}
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after a short write: %v", err)
	}
	defer l.Close()
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records, want the 4 acknowledged", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Data, shortWriteData(r.Seq)) {
			t.Fatalf("record %d: seq %d with the wrong data", i, r.Seq)
		}
	}
}

// shortWriteChild appends seqs 1-3, fails seq 4 part-way at the file size
// limit, lifts the limit and appends seq 4 again.
func shortWriteChild(t *testing.T, dir string) {
	l, err := Create(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	rec := uint64(recBody + 8 + 4096)
	room := uint64(fi.Size()) + 3*rec + rec/2
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: room, Max: lim.Max}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := l.Append(0, shortWriteData(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if _, err := l.Append(0, shortWriteData(4)); !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("append past the size limit: %v, want EFBIG", err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append(0, shortWriteData(4)); err != nil || seq != 4 {
		t.Fatalf("append after lifting the limit: seq %d, %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

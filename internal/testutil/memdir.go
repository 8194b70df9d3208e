package testutil

import (
	"os"
	"testing"

	"repro/internal/statedir"
)

// MainInMemory runs a package's tests with TMPDIR, and so t.TempDir, on a
// fresh directory from statedir.Make — memory-backed (/dev/shm) where the
// host has it — and exits with their status. Tests that fsync a
// write-ahead log on every append check replay, not physical durability,
// so they need not wait on a disk.
func MainInMemory(m *testing.M) {
	dir, err := statedir.Make("storm-test-")
	if err == nil {
		os.Setenv("TMPDIR", dir)
	}
	code := m.Run()
	if err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

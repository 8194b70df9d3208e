package testutil

import (
	"os"
	"testing"
)

// MainInMemory runs a package's tests with TMPDIR, and so t.TempDir, on a
// memory-backed directory (/dev/shm) where the host has one, and exits with
// their status. Tests that fsync a write-ahead log on every append check
// replay, not physical durability, so they need not wait on a disk. Without
// /dev/shm the tests run against the default temporary directory.
func MainInMemory(m *testing.M) {
	dir, err := os.MkdirTemp("/dev/shm", "storm-test-")
	if err == nil {
		os.Setenv("TMPDIR", dir)
	}
	code := m.Run()
	if err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

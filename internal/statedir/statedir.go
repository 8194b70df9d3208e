// Package statedir places state a run needs for replay but not for
// physical durability, such as a write-ahead log whose recovery a test or
// experiment checks: on memory-backed storage where the host has it, so an
// fsync costs microseconds instead of a disk's milliseconds.
package statedir

import "os"

// Make creates a new directory as os.MkdirTemp does, under /dev/shm when
// the host has one and under the default temporary directory otherwise.
func Make(pattern string) (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", pattern); err == nil {
		return dir, nil
	}
	return os.MkdirTemp("", pattern)
}

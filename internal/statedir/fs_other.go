//go:build !linux

package statedir

// FS names the file system dir is on; only Linux can tell.
func FS(dir string) string { return "unknown" }

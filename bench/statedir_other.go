//go:build !linux

package main

import "os"

// enterStateDir: mount namespaces are Linux's; elsewhere durable journals
// go to the plain directory.
func enterStateDir(dir string) (string, error) {
	return "unknown", os.MkdirAll(dir, 0o755)
}

func fsName(string) string { return "unknown" }

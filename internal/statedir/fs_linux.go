package statedir

import (
	"fmt"
	"syscall"
)

// FS names the file system dir is on: "tmpfs", or its statfs magic number.
func FS(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if st.Type == 0x01021994 {
		return "tmpfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

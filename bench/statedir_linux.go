package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// Durable journals fsync on every append. On a disk-backed file system that
// costs hundreds of microseconds and varies by a fifth from one second to
// the next, which would bury the code being measured; on tmpfs it costs
// about two. So the process re-executes itself in a private mount namespace
// and mounts a tmpfs over the state directory: journal files stay inside
// the output directory by path, live in memory, and vanish with the
// process. Where the kernel refuses, the plain directory is used and
// state_fs in every record says so.

const nsEnv = "STORM_BENCH_NS"

// enterStateDir makes dir, the directory durable journals go under, a tmpfs
// if it can, and returns the name of the file system dir ends up on. It
// does not return in the parent of a successful re-execution: that process
// exits with its child's status.
func enterStateDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	switch {
	case fsName(dir) == "tmpfs":
	case os.Getenv(nsEnv) == "":
		reexecInNamespace()
	default:
		// Inside the namespace: keep the mount from propagating out, then
		// cover the directory.
		if err := syscall.Mount("", "/", "", syscall.MS_REC|syscall.MS_PRIVATE, ""); err == nil {
			_ = syscall.Mount("tmpfs", dir, "tmpfs", 0, "")
		}
	}
	return fsName(dir), nil
}

// reexecInNamespace runs this program again under a new mount namespace,
// first as is (root), then inside a user namespace (unprivileged). It
// returns only if neither can be started.
func reexecInNamespace() {
	// Pdeathsig fires when the creating thread exits, so pin it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	uid, gid := os.Getuid(), os.Getgid()
	for _, attr := range []*syscall.SysProcAttr{
		{Unshareflags: syscall.CLONE_NEWNS},
		{
			Cloneflags:  syscall.CLONE_NEWUSER | syscall.CLONE_NEWNS,
			UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: uid, Size: 1}},
			GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: gid, Size: 1}},
		},
	} {
		attr.Pdeathsig = syscall.SIGKILL
		cmd := exec.Command("/proc/self/exe", os.Args[1:]...)
		cmd.Env = append(os.Environ(), nsEnv+"=1")
		cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
		cmd.SysProcAttr = attr
		if err := cmd.Start(); err != nil {
			continue
		}
		err := cmd.Wait()
		var exit *exec.ExitError
		switch {
		case err == nil:
			os.Exit(0)
		case errors.As(err, &exit) && exit.ExitCode() >= 0:
			os.Exit(exit.ExitCode())
		default:
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

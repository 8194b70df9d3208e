package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/extfs"
	"repro/internal/policy"
	"repro/internal/semantic"
	"repro/internal/services/monitor"
)

// monitoredVolume builds the Section V-B1 setup: an extfs volume with
// folders name0..name9 each holding 1.img..10.img, attached through a
// monitoring middle-box. It returns the tenant-side file system and the
// monitor handle.
func monitoredVolume(l *Lab, vmName string, watch string) (*extfs.FS, *monitor.Monitor, func(), error) {
	vm, vol, err := l.vmVolume(vmName, 128<<20)
	if err != nil {
		return nil, nil, nil, err
	}
	// The tenant formats and populates the volume over the legacy path.
	dev, err := l.Cloud.AttachVolume(vm, vol.ID)
	if err != nil {
		return nil, nil, nil, err
	}
	fs, err := extfs.Mkfs(dev, extfs.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := fs.MkdirAll("/mnt/box"); err != nil {
		return nil, nil, nil, err
	}
	for d := 0; d < 10; d++ {
		dir := fmt.Sprintf("/mnt/box/name%d", d)
		if err := fs.Mkdir(dir); err != nil {
			return nil, nil, nil, err
		}
		for f := 1; f <= 10; f++ {
			if err := fs.WriteFile(fmt.Sprintf("%s/%d.img", dir, f),
				bytes.Repeat([]byte{byte(f)}, 4096)); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	_ = dev.Close()
	if err := l.Cloud.DetachVolume(vol.ID); err != nil {
		return nil, nil, nil, err
	}

	// Deploy the monitoring middle-box and re-attach through it; the
	// platform dumps the initial system view at this point.
	dep, mdev, err := l.deploy(vmName, vol.ID, "compute2", "compute4", policy.MiddleBoxSpec{
		Name: "mon", Type: policy.TypeMonitor, Host: "compute3",
		Params: map[string]string{"watch": watch},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	fs2, err := extfs.Mount(mdev)
	if err != nil {
		return nil, nil, nil, err
	}
	cleanup := func() { _ = l.Platform.Teardown(dep.Tenant) }
	return fs2, dep.Monitors["mon"], cleanup, nil
}

// TableI reproduces the synthetic attack scenario of Tables I and II: the
// Table II file operations are issued in the tenant VM and the monitoring
// middle-box reconstructs the Table I access log.
func TableI() (*ReconstructionResult, error) {
	l, err := NewLab()
	if err != nil {
		return nil, err
	}
	defer l.Close()
	fs, mon, cleanup, err := monitoredVolume(l, "vm-mon", "/mnt/box")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Table II: 1* write /mnt/box/name1/1.img, 2** read /mnt/box/name9/7.img.
	if err := fs.WriteAt("/mnt/box/name1/1.img", bytes.Repeat([]byte{0x11}, 4096), 0); err != nil {
		return nil, err
	}
	if _, err := fs.ReadFile("/mnt/box/name9/7.img"); err != nil {
		return nil, err
	}
	return &ReconstructionResult{
		VMOps: []string{
			"1*  write /mnt/box/name1/1.img 4096",
			"2** read  /mnt/box/name9/7.img 4096",
		},
		Log: mon.Log(),
	}, nil
}

// MalwareStep is one recorded action of the Table III backdoor replay.
type MalwareStep struct {
	Step   int
	Action string
}

// TableIII replays the HEUR:Backdoor.Linux.Ganiw.a installation footprint
// (Table III) inside the monitored tenant VM and returns the monitor's
// reconstructed log. The monitor carries the malware's signature (the
// paper: "the revealed file access patterns of malware can then be used by
// the middle-box for future detection"), which fires during the replay.
func TableIII() ([]MalwareStep, []semantic.Event, error) {
	l, err := NewLab()
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	fs, mon, cleanup, err := monitoredVolume(l, "vm-mal", "/")
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	mon.AddSignature(monitor.GaniwSignature())

	// System tree the malware touches.
	for _, dir := range []string{"/etc/init.d", "/bin", "/usr/bin/bsd-port", "/usr/share/GeoIP",
		"/usr/lib/python3.4/xml/sax", "/etc/rc1.d", "/etc/rc2.d", "/etc/rc3.d", "/etc/rc4.d", "/etc/rc5.d"} {
		if err := fs.MkdirAll(dir); err != nil {
			return nil, nil, err
		}
	}
	for _, f := range []string{"/bin/netstat", "/bin/ps", "/bin/ss", "/usr/bin/lsof"} {
		if err := fs.WriteFile(f, bytes.Repeat([]byte{0x7F, 'E', 'L', 'F'}, 1024)); err != nil {
			return nil, nil, err
		}
	}
	if err := fs.WriteFile("/usr/share/GeoIP/GeoIPv6.dat", bytes.Repeat([]byte{9}, 32768)); err != nil {
		return nil, nil, err
	}
	if err := fs.WriteFile("/usr/lib/python3.4/xml/sax/expatreader.py", bytes.Repeat([]byte{'#'}, 8192)); err != nil {
		return nil, nil, err
	}

	payload := bytes.Repeat([]byte{0xEB, 0xFE}, 4096) // the dropped binary

	var steps []MalwareStep
	record := func(step int, action string) {
		steps = append(steps, MalwareStep{Step: step, Action: action})
	}

	// Step 1: persistence script in /etc/init.d.
	if err := fs.WriteFile("/etc/init.d/DbSecuritySpt", []byte("#!/bin/bash\n/tmp/malware\n")); err != nil {
		return nil, nil, err
	}
	record(1, `cp "#!/bin/bash\n<path_to_malware>" /etc/init.d/DbSecuritySpt`)

	// Step 2: link the start script into run levels 1-5.
	for lvl := 1; lvl <= 5; lvl++ {
		if err := fs.Symlink("/etc/init.d/DbSecuritySpt",
			fmt.Sprintf("/etc/rc%d.d/S97DbSecuritySpt", lvl)); err != nil {
			return nil, nil, err
		}
	}
	record(2, "ln -s /etc/init.d/DbSecuritySpt /etc/rc[1-5].d/S97DbSecuritySpt")

	// Step 3: drop the getty backdoor.
	if err := fs.WriteFile("/usr/bin/bsd-port/getty", payload); err != nil {
		return nil, nil, err
	}
	record(3, "cp <path_to_malware> /usr/bin/bsd-port/getty")

	// Step 4: fake selinux launcher.
	if err := fs.WriteFile("/etc/init.d/selinux", []byte("#!/bin/bash\n/usr/bin/bsd-port/getty\n")); err != nil {
		return nil, nil, err
	}
	record(4, `cp "#!/bin/bash\n/usr/bin/bsd-port/getty" /etc/init.d/selinux`)

	// Step 5: link the fake selinux into run levels.
	for lvl := 1; lvl <= 5; lvl++ {
		if err := fs.Symlink("/etc/init.d/selinux",
			fmt.Sprintf("/etc/rc%d.d/S99selinux", lvl)); err != nil {
			return nil, nil, err
		}
	}
	record(5, "ln -s /etc/init.d/selinux /etc/rc[1-5].d/S99selinux")

	// Step 6: replace system tools with trojaned versions.
	for _, f := range []string{"/bin/netstat", "/usr/bin/lsof", "/bin/ps", "/bin/ss"} {
		if err := fs.WriteFile(f, payload); err != nil {
			return nil, nil, err
		}
	}
	record(6, "cp <path_to_malware> /bin/netstat /usr/bin/lsof /bin/ps /bin/ss")

	// The malware also reads the GeoIP database and the Python SAX driver.
	if _, err := fs.ReadFile("/usr/share/GeoIP/GeoIPv6.dat"); err != nil {
		return nil, nil, err
	}
	if _, err := fs.ReadFile("/usr/lib/python3.4/xml/sax/expatreader.py"); err != nil {
		return nil, nil, err
	}
	record(7, "read /usr/share/GeoIP/GeoIPv6.dat, /usr/lib/python3.4/xml/sax/expatreader.py")

	for _, match := range mon.SignatureMatches() {
		record(8, fmt.Sprintf("DETECTED by signature: %s", match.Signature))
	}
	return steps, mon.Log(), nil
}

// FormatReconstruction renders Table I/II style output.
func FormatReconstruction(r *ReconstructionResult, maxRows int) string {
	var b strings.Builder
	b.WriteString("File operations in the tenant VM (Table II):\n")
	for _, op := range r.VMOps {
		fmt.Fprintf(&b, "  %s\n", op)
	}
	fmt.Fprintf(&b, "Reconstructed block-level access log (Table I, %d entries):\n", len(r.Log))
	for i, e := range r.Log {
		if maxRows > 0 && i >= maxRows {
			fmt.Fprintf(&b, "  ... (%d more)\n", len(r.Log)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", e.String())
	}
	return b.String()
}

// FormatMalware renders Table III style output.
func FormatMalware(steps []MalwareStep, log []semantic.Event) string {
	var b strings.Builder
	b.WriteString("Malware actions (Table III):\n")
	for _, s := range steps {
		fmt.Fprintf(&b, "  Step %d  %s\n", s.Step, s.Action)
	}
	fmt.Fprintf(&b, "Monitor observations (%d events); file-level operations:\n", len(log))
	for _, e := range log {
		if e.Type == semantic.EvCreate || e.Type == semantic.EvDelete || e.Type == semantic.EvRename {
			fmt.Fprintf(&b, "  %s\n", e.String())
		}
	}
	return b.String()
}

package monitor

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/extfs"
	"repro/internal/semantic"
)

// setup builds a monitored volume holding /mnt/box with sensitive files.
func setup(t *testing.T) (*extfs.FS, *Monitor) {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 131072)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mkfs(disk, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/mnt/box/secrets"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mnt/box/secrets/key.pem", bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mnt/box/public.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	view, err := fs.Dump()
	if err != nil {
		t.Fatal(err)
	}
	mon := New(view)
	// Re-mount through the monitor's tap, as the middle-box observes.
	tapped, err := mon.Service()(disk)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := extfs.Mount(tapped)
	if err != nil {
		t.Fatal(err)
	}
	return fs2, mon
}

func TestWatchedFileAccessRaisesAlert(t *testing.T) {
	fs, mon := setup(t)
	mon.Watch("/mnt/box/secrets")
	if _, err := fs.ReadFile("/mnt/box/secrets/key.pem"); err != nil {
		t.Fatal(err)
	}
	alerts := mon.Alerts()
	if len(alerts) == 0 {
		t.Fatal("no alert for watched file read")
	}
	found := false
	for _, a := range alerts {
		if a.Rule == "/mnt/box/secrets" && strings.Contains(a.Event.Path, "key.pem") {
			found = true
		}
	}
	if !found {
		t.Errorf("alerts = %+v", alerts)
	}
}

func TestUnwatchedAccessSilent(t *testing.T) {
	fs, mon := setup(t)
	mon.Watch("/mnt/box/secrets")
	if _, err := fs.ReadFile("/mnt/box/public.txt"); err != nil {
		t.Fatal(err)
	}
	for _, a := range mon.Alerts() {
		if strings.Contains(a.Event.Path, "public.txt") {
			t.Errorf("unwatched file alerted: %+v", a)
		}
	}
}

func TestAlertCallback(t *testing.T) {
	fs, mon := setup(t)
	mon.Watch("/mnt/box/secrets")
	var got []Alert
	mon.OnAlert(func(a Alert) { got = append(got, a) })
	if err := fs.WriteAt("/mnt/box/secrets/key.pem", bytes.Repeat([]byte{2}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("callback never fired for watched write")
	}
}

func TestDeleteOfWatchedFileAlerts(t *testing.T) {
	fs, mon := setup(t)
	mon.Watch("/mnt/box/secrets")
	if err := fs.Remove("/mnt/box/secrets/key.pem"); err != nil {
		t.Fatal(err)
	}
	var deleted bool
	for _, a := range mon.Alerts() {
		if a.Event.Type == semantic.EvDelete {
			deleted = true
		}
	}
	if !deleted {
		t.Errorf("no delete alert; log:\n%s", renderLog(mon))
	}
}

func TestRenameOutOfWatchedTreeAlerts(t *testing.T) {
	fs, mon := setup(t)
	mon.Watch("/mnt/box/secrets")
	if err := fs.Rename("/mnt/box/secrets/key.pem", "/mnt/box/stolen.pem"); err != nil {
		t.Fatal(err)
	}
	var renamed bool
	for _, a := range mon.Alerts() {
		if a.Event.Type == semantic.EvRename && a.Event.OldPath == "/mnt/box/secrets/key.pem" {
			renamed = true
		}
	}
	if !renamed {
		t.Errorf("rename out of watched tree not alerted; log:\n%s", renderLog(mon))
	}
}

func TestAccessLogAvailable(t *testing.T) {
	fs, mon := setup(t)
	if _, err := fs.ReadDir("/mnt/box"); err != nil {
		t.Fatal(err)
	}
	if len(mon.Log()) == 0 {
		t.Error("empty access log after directory listing")
	}
}

func TestMonitorObservesMalwareStyleInstall(t *testing.T) {
	// The Table III flavour: a "malware" drops startup scripts and
	// replaces system tools; the monitor sees every step.
	fs, mon := setup(t)
	mon.Watch("/etc")
	mon.Watch("/bin")
	for _, p := range []string{"/etc/init.d", "/etc/rc3.d", "/bin", "/usr/bin/bsd-port"} {
		if err := fs.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/etc/init.d/DbSecuritySpt", []byte("#!/bin/bash\n/tmp/malware")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bin/netstat", bytes.Repeat([]byte{0x7F}, 8192)); err != nil {
		t.Fatal(err)
	}
	var sawInit, sawTool bool
	for _, a := range mon.Alerts() {
		if strings.Contains(a.Event.Path, "DbSecuritySpt") {
			sawInit = true
		}
		if strings.Contains(a.Event.Path, "netstat") {
			sawTool = true
		}
	}
	if !sawInit || !sawTool {
		t.Errorf("malware footprint incomplete: init=%v tool=%v\n%s", sawInit, sawTool, renderLog(mon))
	}
}

func renderLog(m *Monitor) string {
	var b strings.Builder
	for _, e := range m.Log() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSignatureDetection(t *testing.T) {
	fs, mon := setup(t)
	mon.AddSignature(Signature{
		Name:      "test-backdoor",
		Fragments: []string{"DbSecuritySpt", "bsd-port/getty"},
	})

	for _, d := range []string{"/etc/init.d", "/usr/bin/bsd-port"} {
		if err := fs.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
	}
	// First fragment alone must not fire.
	if err := fs.WriteFile("/etc/init.d/DbSecuritySpt", []byte("#!")); err != nil {
		t.Fatal(err)
	}
	if len(mon.SignatureMatches()) != 0 {
		t.Fatal("signature fired on partial evidence")
	}
	// Completing the pattern fires exactly once.
	if err := fs.WriteFile("/usr/bin/bsd-port/getty", bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	got := mon.SignatureMatches()
	if len(got) != 1 || got[0].Signature != "test-backdoor" {
		t.Fatalf("matches = %+v", got)
	}
	if len(got[0].Evidence) != 2 {
		t.Errorf("evidence = %+v", got[0].Evidence)
	}
	// Re-touching the files must not re-fire.
	if err := fs.WriteFile("/usr/bin/bsd-port/getty", bytes.Repeat([]byte{2}, 512)); err != nil {
		t.Fatal(err)
	}
	if len(mon.SignatureMatches()) != 1 {
		t.Error("signature re-fired")
	}
}

func TestSignatureIgnoresReads(t *testing.T) {
	fs, mon := setup(t)
	mon.AddSignature(Signature{Name: "read-only", Fragments: []string{"key.pem"}})
	if _, err := fs.ReadFile("/mnt/box/secrets/key.pem"); err != nil {
		t.Fatal(err)
	}
	if len(mon.SignatureMatches()) != 0 {
		t.Error("signature fired on a read")
	}
	// Empty signatures are ignored.
	mon.AddSignature(Signature{Name: "empty"})
}

func TestGaniwSignatureShipsWithTableIIIFragments(t *testing.T) {
	sig := GaniwSignature()
	if sig.Name == "" || len(sig.Fragments) < 4 {
		t.Errorf("GaniwSignature = %+v", sig)
	}
}

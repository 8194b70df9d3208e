package cloud

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/services/crypt"
)

func fastCloud(t *testing.T) *Cloud {
	t.Helper()
	model := netsim.Model{MTU: 8192, Bandwidth: 1 << 33,
		Latency: map[netsim.HopKind]time.Duration{}, PerPacket: map[netsim.HopKind]time.Duration{}}
	c, err := New(Config{ComputeHosts: 3, Model: model})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestTopology(t *testing.T) {
	c := fastCloud(t)
	hosts := c.ComputeHosts()
	if len(hosts) != 3 || hosts[0] != "compute1" {
		t.Errorf("ComputeHosts = %v", hosts)
	}
	if c.StorageHost() != "storage1" {
		t.Errorf("StorageHost = %q", c.StorageHost())
	}
	if c.HostCPU("compute1") == nil {
		t.Error("no CPU account for compute1")
	}
	if c.HostCPU("nope") != nil {
		t.Error("CPU account for unknown host")
	}
}

func TestLaunchVM(t *testing.T) {
	c := fastCloud(t)
	vm, err := c.LaunchVM("vm1", "compute2")
	if err != nil {
		t.Fatalf("LaunchVM: %v", err)
	}
	if vm.Host != "compute2" {
		t.Errorf("Host = %q", vm.Host)
	}
	if _, err := c.LaunchVM("vm1", ""); err == nil {
		t.Error("duplicate VM accepted")
	}
	if _, err := c.LaunchVM("vm2", "atlantis"); err == nil {
		t.Error("unknown host accepted")
	}
	got, err := c.VM("vm1")
	if err != nil || got != vm {
		t.Errorf("VM() = %v, %v", got, err)
	}
	if _, err := c.VM("ghost"); err == nil {
		t.Error("unknown VM lookup succeeded")
	}
	// Round-robin placement when host is unspecified.
	vm2, err := c.LaunchVM("vm2", "")
	if err != nil || vm2.Host == "" {
		t.Errorf("auto placement failed: %v, %v", vm2, err)
	}
}

func TestAttachDetachVolume(t *testing.T) {
	c := fastCloud(t)
	vm, err := c.LaunchVM("vm1", "")
	if err != nil {
		t.Fatal(err)
	}
	vol, err := c.Volumes.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := c.AttachVolume(vm, vol.ID)
	if err != nil {
		t.Fatalf("AttachVolume: %v", err)
	}
	want := bytes.Repeat([]byte{1}, 512)
	if err := dev.WriteAt(want, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// Attribution recorded.
	if b, ok := c.Plane.Attributions().ByIQN(vol.IQN); !ok || b.VM == "" || b.SourcePort == 0 {
		t.Errorf("attribution = %+v, %v", b, ok)
	}
	_ = dev.Close()
	if err := c.DetachVolume(vol.ID); err != nil {
		t.Fatalf("DetachVolume: %v", err)
	}
	if _, ok := c.Plane.Attributions().ByIQN(vol.IQN); ok {
		t.Error("attribution survives detach")
	}
	// The volume can be attached again.
	dev2, err := c.AttachVolume(vm, vol.ID)
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	got := make([]byte, 512)
	if err := dev2.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Errorf("data lost across detach: %v", err)
	}
	_ = dev2.Close()
}

func TestLaunchMiddleBoxAndDataPath(t *testing.T) {
	c := fastCloud(t)
	key := make([]byte, 32)
	mb, err := c.LaunchMiddleBox(MBSpec{
		Name: "mb1",
		Mode: middlebox.Active,
		BuildServices: func(m *MiddleBox) ([]middlebox.ServiceFactory, error) {
			if m.Name != "mb1" || m.Endpoint == nil {
				t.Errorf("builder got %+v", m)
			}
			return []middlebox.ServiceFactory{crypt.Service(key, crypt.CostModel{})}, nil
		},
	})
	if err != nil {
		t.Fatalf("LaunchMiddleBox: %v", err)
	}
	if mb.RelayAddr.IsZero() || mb.InstanceIP == "" {
		t.Errorf("mb = %+v", mb)
	}
	if err := c.RemoveMiddleBox("ghost"); !errors.Is(err, ErrNoSuchMiddleBox) {
		t.Errorf("unknown MB err = %v", err)
	}
	// Duplicate name fails (instance IP and registration conflicts).
	if _, err := c.LaunchMiddleBox(MBSpec{Name: "mb1", Mode: middlebox.Active}); err == nil {
		t.Error("duplicate MB accepted")
	}
}

func TestMBAttachVolume(t *testing.T) {
	c := fastCloud(t)
	mb, err := c.LaunchMiddleBox(MBSpec{Name: "mb1", Mode: middlebox.Active})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := c.Volumes.Create("replica", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := c.MBAttachVolume(mb, vol.ID)
	if err != nil {
		t.Fatalf("MBAttachVolume: %v", err)
	}
	defer dev.Close()
	var _ blockdev.Device = dev
	if err := dev.WriteAt(make([]byte, 512), 0); err != nil {
		t.Errorf("WriteAt: %v", err)
	}
	got, _ := c.Volumes.Get(vol.ID)
	if got.AttachedTo != "mb1" {
		t.Errorf("AttachedTo = %q", got.AttachedTo)
	}
}

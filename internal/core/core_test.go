package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cloud"
	"repro/internal/extfs"
	"repro/internal/netsim"
	"repro/internal/policy"
)

const aesKeyHex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// fastCloud builds a cloud with negligible network costs for functional
// tests.
func fastCloud(t *testing.T) (*cloud.Cloud, *Platform) {
	t.Helper()
	model := netsim.Model{
		MTU:       8 * 1024,
		Bandwidth: 1 << 33,
		Latency:   map[netsim.HopKind]time.Duration{},
		PerPacket: map[netsim.HopKind]time.Duration{},
	}
	c, err := cloud.New(cloud.Config{ComputeHosts: 4, Model: model})
	if err != nil {
		t.Fatalf("cloud.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c, New(c)
}

// launchAndVolume boots a VM and creates a 16 MiB volume.
func launchAndVolume(t *testing.T, c *cloud.Cloud, vmName string) (vm *cloud.VM, volID string) {
	t.Helper()
	v, err := c.LaunchVM(vmName, "compute1")
	if err != nil {
		t.Fatalf("LaunchVM: %v", err)
	}
	vol, err := c.Volumes.Create(vmName+"-vol", 16*1024*1024)
	if err != nil {
		t.Fatalf("Create volume: %v", err)
	}
	return v, vol.ID
}

func TestLegacyAttachAndIO(t *testing.T) {
	c, _ := fastCloud(t)
	vm, volID := launchAndVolume(t, c, "vm1")
	dev, err := c.AttachVolume(vm, volID)
	if err != nil {
		t.Fatalf("AttachVolume: %v", err)
	}
	defer dev.Close()
	want := bytes.Repeat([]byte{0xAD}, 4096)
	if err := dev.WriteAt(want, 100); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, 4096)
	if err := dev.ReadAt(got, 100); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("legacy attach corrupted data")
	}
	// Attribution assembled from hypervisor + login halves.
	vol, _ := c.Volumes.Get(volID)
	b, ok := c.Plane.Attributions().ByIQN(vol.IQN)
	if !ok || b.VM != "vm1" || b.SourcePort == 0 {
		t.Errorf("attribution = %+v, %v", b, ok)
	}
	// Double attach is refused.
	if _, err := c.AttachVolume(vm, volID); err == nil {
		t.Error("double attach: want error")
	}
}

func TestApplyEncryptionPolicy(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:   "enc1",
			Type:   policy.TypeEncryption,
			Host:   "compute3",
			Params: map[string]string{"key": aesKeyHex},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"enc1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	if av == nil {
		t.Fatal("no attached volume handle")
	}
	want := bytes.Repeat([]byte("topsecret."), 410)[:4096]
	if err := av.Device.WriteAt(want, 10); err != nil {
		t.Fatalf("WriteAt through encryption chain: %v", err)
	}
	got := make([]byte, 4096)
	if err := av.Device.ReadAt(got, 10); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("round trip through encryption middle-box corrupted data")
	}
	// The volume's backing store must hold ciphertext.
	vol, _ := c.Volumes.Get(volID)
	raw := make([]byte, 4096)
	if err := vol.Device().ReadAt(raw, 10); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("topsecret")) {
		t.Error("plaintext reached the storage host: encryption is not in the path")
	}
}

func TestApplyMonitorPolicy(t *testing.T) {
	c, p := fastCloud(t)
	vm, volID := launchAndVolume(t, c, "vm1")

	// Tenant formats the volume over the legacy path first.
	dev, err := c.AttachVolume(vm, volID)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mkfs(dev, extfs.Options{})
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	if err := fs.MkdirAll("/mnt/box"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mnt/box/secret.txt", []byte("classified")); err != nil {
		t.Fatal(err)
	}
	_ = dev.Close()
	if err := c.DetachVolume(volID); err != nil {
		t.Fatal(err)
	}

	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:   "mon1",
			Type:   policy.TypeMonitor,
			Params: map[string]string{"watch": "/mnt/box"},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"mon1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	fs2, err := extfs.Mount(av.Device)
	if err != nil {
		t.Fatalf("Mount through monitor: %v", err)
	}
	if _, err := fs2.ReadFile("/mnt/box/secret.txt"); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	mon := dep.Monitors["mon1"]
	if mon == nil {
		t.Fatal("no monitor handle")
	}
	var watched bool
	for _, a := range mon.Alerts() {
		if strings.Contains(a.Event.Path, "secret.txt") {
			watched = true
		}
	}
	if !watched {
		t.Errorf("watched read not alerted; log has %d events", len(mon.Log()))
	}
}

func TestApplyReplicationPolicyWithFailover(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:   "rep1",
			Type:   policy.TypeReplication,
			Params: map[string]string{"replicas": "3"},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"rep1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := len(dep.ReplicaVolumes["rep1"]); got != 2 {
		t.Fatalf("replica volumes = %d, want 2", got)
	}
	av := dep.Volumes["vm1/"+volID]
	want := bytes.Repeat([]byte{0xE7}, 2048)
	if err := av.Device.WriteAt(want, 50); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := av.Device.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// All three copies hold the data.
	vol, _ := c.Volumes.Get(volID)
	for i, bd := range []blockdev.Device{vol.Device(), dep.ReplicaVolumes["rep1"][0].Device(), dep.ReplicaVolumes["rep1"][1].Device()} {
		got := make([]byte, 2048)
		if err := bd.ReadAt(got, 50); err != nil {
			t.Fatalf("replica %d read: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica %d diverges", i)
		}
	}
	// Inject the Figure 13 failure into one replica: service continues.
	disp := dep.Dispatcher("rep1")
	if disp == nil {
		t.Fatal("no dispatcher handle")
	}
	dep.ReplicaVolumes["rep1"][0].InjectFault(errors.New("iscsi connection closed"))
	for i := 0; i < 8; i++ {
		got := make([]byte, 2048)
		if err := av.Device.ReadAt(got, 50); err != nil {
			t.Fatalf("read after replica failure: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("stale read after failover")
		}
	}
	if err := av.Device.WriteAt(want, 60); err != nil {
		t.Fatalf("write after replica failure: %v", err)
	}
	if err := av.Device.Flush(); err != nil {
		t.Fatalf("flush after replica failure: %v", err)
	}
	alive := 0
	for _, st := range disp.States() {
		if st.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("%d replicas alive, want 2", alive)
	}
}

func TestApplyChainedServices(t *testing.T) {
	// The paper's service-bundle scenario: monitor + encryption chained on
	// one volume. The monitor records the I/O, then the data is encrypted
	// on its way to disk.
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")

	// The tenant formats the fresh volume THROUGH the chain: the monitor
	// learns the file-system geometry from the intercepted superblock and
	// metadata writes, and everything lands encrypted on disk.
	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{
			{Name: "mon1", Type: policy.TypeMonitor, Params: map[string]string{"watch": "/data"}},
			{Name: "enc1", Type: policy.TypeEncryption, Params: map[string]string{"key": aesKeyHex}},
		},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"mon1", "enc1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	fs2, err := extfs.Mkfs(av.Device, extfs.Options{})
	if err != nil {
		t.Fatalf("Mkfs through chain: %v", err)
	}
	if err := fs2.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	secret := []byte("chained-secret-payload")
	if err := fs2.WriteFile("/data/f.bin", secret); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs2.ReadFile("/data/f.bin")
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("ReadFile through chain: %q, %v", got, err)
	}
	// Monitor saw the file operation.
	mon := dep.Monitors["mon1"]
	var created bool
	for _, a := range mon.Alerts() {
		if strings.Contains(a.Event.Path, "/data/f.bin") {
			created = true
		}
	}
	if !created {
		t.Error("monitor missed the chained write")
	}
	// Disk holds ciphertext.
	vol, _ := c.Volumes.Get(volID)
	raw := make([]byte, vol.SizeBytes)
	rawDev := vol.Device()
	buf := make([]byte, 4096)
	var leaked bool
	for lba := uint64(0); lba < rawDev.Blocks(); lba += 8 {
		if err := rawDev.ReadAt(buf, lba); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(buf, secret) {
			leaked = true
			break
		}
	}
	_ = raw
	if leaked {
		t.Error("plaintext on disk despite encryption middle-box")
	}
}

func TestApplyValidatesAndRejectsDuplicates(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name: "enc1", Type: policy.TypeEncryption,
			Params: map[string]string{"key": aesKeyHex},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"enc1"}}},
	}
	if _, err := p.Apply(pol); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := p.Apply(pol); err == nil {
		t.Error("duplicate tenant Apply: want error")
	}
	bad := &policy.Policy{Tenant: "x"}
	if _, err := p.Apply(bad); err == nil {
		t.Error("invalid policy: want error")
	}
	_ = c
}

func TestTeardownReleasesResources(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name: "enc1", Type: policy.TypeEncryption,
			Params: map[string]string{"key": aesKeyHex},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"enc1"}}},
	}
	if _, err := p.Apply(pol); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := p.Teardown("tenantA"); err != nil {
		t.Fatalf("Teardown: %v", err)
	}
	if _, ok := p.Deployment("tenantA"); ok {
		t.Error("deployment survives Teardown")
	}
	// The volume is available again.
	vol, _ := c.Volumes.Get(volID)
	if vol.Status != "available" {
		t.Errorf("volume status = %s after teardown", vol.Status)
	}
	if err := p.Teardown("tenantA"); err == nil {
		t.Error("double Teardown: want error")
	}
	// Re-apply works after teardown... with a fresh tenant key (gateway
	// IPs are fresh; middle-box names must differ as guest IPs persist).
	pol2 := &policy.Policy{
		Tenant: "tenantB",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name: "enc2", Type: policy.TypeEncryption,
			Params: map[string]string{"key": aesKeyHex},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"enc2"}}},
	}
	if _, err := p.Apply(pol2); err != nil {
		t.Fatalf("re-Apply: %v", err)
	}
}

func TestForwardOnlyChain(t *testing.T) {
	// The MB-FWD evaluation configuration: a forward-type middle-box on
	// the path, no relay.
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name: "fwd1", Type: policy.TypeForward, Host: "compute4",
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"fwd1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	want := bytes.Repeat([]byte{1}, 1024)
	if err := av.Device.WriteAt(want, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// The session's route crosses the forward host.
	conn, ok := av.Device.Session().Conn().(*netsim.Conn)
	if !ok {
		t.Fatal("expected fabric connection")
	}
	var crosses bool
	for _, h := range conn.Route().Hops {
		if h.Host == "compute4" && h.Kind == netsim.HopForward {
			crosses = true
		}
	}
	if !crosses {
		t.Errorf("route does not forward through compute4: %+v", conn.Route().Hops)
	}
	_ = c
}

func TestMultiTenantIsolation(t *testing.T) {
	c, p := fastCloud(t)
	_, volA := launchAndVolume(t, c, "vmA")
	vmB, err := c.LaunchVM("vmB", "compute2")
	if err != nil {
		t.Fatal(err)
	}
	volB, err := c.Volumes.Create("vmB-vol", 16*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range []struct {
		tenant, vm, vol string
	}{{"tenantA", "vmA", volA}, {"tenantB", "vmB", volB.ID}} {
		pol := &policy.Policy{
			Tenant: tn.tenant,
			MiddleBoxes: []policy.MiddleBoxSpec{{
				Name: fmt.Sprintf("enc%d", i), Type: policy.TypeEncryption,
				Params: map[string]string{"key": aesKeyHex},
			}},
			Volumes: []policy.VolumeBinding{{VM: tn.vm, Volume: tn.vol, Chain: []string{fmt.Sprintf("enc%d", i)}}},
		}
		if _, err := p.Apply(pol); err != nil {
			t.Fatalf("Apply %s: %v", tn.tenant, err)
		}
	}
	depA, _ := p.Deployment("tenantA")
	depB, _ := p.Deployment("tenantB")
	a := depA.Volumes["vmA/"+volA]
	b := depB.Volumes["vmB/"+volB.ID]
	if err := a.Device.WriteAt(bytes.Repeat([]byte{0xAA}, 512), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Device.WriteAt(bytes.Repeat([]byte{0xBB}, 512), 0); err != nil {
		t.Fatal(err)
	}
	bufA := make([]byte, 512)
	if err := a.Device.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if bufA[0] != 0xAA {
		t.Error("tenant A sees wrong data")
	}
	// Tenant B cannot dial tenant A's middle-box.
	mbA := depA.MBs["enc0"]
	if _, err := vmB.Endpoint.Dial(netsim.InstanceNet, mbA.InstanceIP+":3260"); err == nil {
		t.Error("tenant B dialed tenant A's middle-box: isolation broken")
	}
}

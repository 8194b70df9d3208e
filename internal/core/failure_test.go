package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/sdn"
	"repro/internal/testutil"
	"repro/internal/vswitch"
)

// TestVolumeFaultPropagatesThroughChain: a medium failure on the primary
// volume surfaces to the VM as an I/O error through the whole spliced path
// (relay, gateways), not as a hang.
func TestVolumeFaultPropagatesThroughChain(t *testing.T) {
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
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	if err := av.Device.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("WriteAt before fault: %v", err)
	}
	vol, _ := c.Volumes.Get(volID)
	vol.InjectFault(errors.New("medium failure"))

	done := make(chan error, 1)
	go func() { done <- av.Device.ReadAt(make([]byte, 512), 0) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read of failed medium succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read of failed medium hung")
	}
}

// TestConcurrentIOThroughActiveRelay hammers one chained volume from many
// goroutines and verifies data integrity end to end.
func TestConcurrentIOThroughActiveRelay(t *testing.T) {
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
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 256)
			want := bytes.Repeat([]byte{byte(g + 1)}, 2048)
			for i := 0; i < 20; i++ {
				if err := av.Device.WriteAt(want, base+uint64(i%8)*4); err != nil {
					t.Errorf("g=%d WriteAt: %v", g, err)
					return
				}
				got := make([]byte, 2048)
				if err := av.Device.ReadAt(got, base+uint64(i%8)*4); err != nil {
					t.Errorf("g=%d ReadAt: %v", g, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("g=%d read stale/corrupt data", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := av.Device.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestLiveChainScaling adds a second middle-box to a live deployment's
// chain while the first session keeps running, then verifies a re-attach
// traverses both (the paper's on-demand service scaling).
func TestLiveChainScaling(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	pol := &policy.Policy{
		Tenant: "tenantA",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name: "enc1", Type: policy.TypeEncryption, Host: "compute2",
			Params: map[string]string{"key": aesKeyHex},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"enc1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	want := bytes.Repeat([]byte{0x77}, 512)
	if err := av.Device.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}

	// Scale up: append a forward-mode middle-box to the live chain.
	mb1 := dep.MBs["enc1"]
	newChain := []sdn.MBSpec{
		{Name: mb1.Name, Host: mb1.Host, Mode: vswitch.ModeTerminate, RelayAddr: mb1.RelayAddr},
		{Name: "tenantA-fwd2", Host: "compute4", Mode: vswitch.ModeForward},
	}
	if err := p.UpdateChain(av.DeploymentID, newChain); err != nil {
		t.Fatalf("UpdateChain: %v", err)
	}

	// The established session keeps flowing on its old route.
	got := make([]byte, 512)
	if err := av.Device.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("established session broken by chain update: %v", err)
	}

	// A new connection from the relay onward picks up the extra hop: the
	// relay's next backend session (for a fresh front session) routes
	// through compute4. Verify by re-attaching the volume.
	// (Detach first: close device, undeploy bookkeeping stays, so attach a
	// second session through the same deployment's capture path.)
	vm, err := c.VM("vm1")
	if err != nil {
		t.Fatal(err)
	}
	d := c.Plane.Deployment(av.DeploymentID)
	if d == nil {
		t.Fatal("deployment vanished")
	}
	var conn *netsim.Conn
	err = c.Plane.AtomicAttach(d, func() error {
		cn, err := vm.Endpoint.DialAddr(d.TargetAddr)
		if err != nil {
			return err
		}
		conn = cn
		return nil
	})
	if err != nil {
		t.Fatalf("re-dial through updated chain: %v", err)
	}
	defer conn.Close()
	// The front conn still terminates at enc1's relay (first hop).
	if conn.Route().Terminate != mb1.RelayAddr {
		t.Errorf("front terminates at %v, want relay %v", conn.Route().Terminate, mb1.RelayAddr)
	}
}

// TestTeardownUnderLoad tears a deployment down while I/O is in flight;
// in-flight operations fail cleanly rather than hanging.
func TestTeardownUnderLoad(t *testing.T) {
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
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]

	stop := make(chan struct{})
	done := make(chan struct{})
	var ops atomic.Int64
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = av.Device.WriteAt(buf, 0)
			_ = av.Device.ReadAt(buf, 0)
			ops.Add(1)
		}
	}()
	testutil.WaitFor(t, 10*time.Second, "I/O under way", func() bool { return ops.Load() >= 20 })

	tearDone := make(chan error, 1)
	go func() { tearDone <- p.Teardown("tenantA") }()
	select {
	case err := <-tearDone:
		if err != nil {
			t.Fatalf("Teardown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Teardown hung under load")
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("I/O goroutine hung after teardown")
	}
}

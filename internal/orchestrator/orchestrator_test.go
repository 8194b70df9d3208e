package orchestrator

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/testutil"
)

const aesKeyHex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// fakeClock is an injectable clock stepped manually by the tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) Now() time.Time          { return f.t }
func (f *fakeClock) Advance(d time.Duration) { f.t = f.t.Add(d) }

// testbed boots a negligible-cost cloud, one VM with a volume, and applies a
// policy chaining it through a scalable encryption group.
func testbed(t *testing.T, tenant string, min, max int) (*cloud.Cloud, *core.Platform, *core.TenantDeployment, string) {
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
	if _, err := c.LaunchVM("vm1", "compute1"); err != nil {
		t.Fatalf("LaunchVM: %v", err)
	}
	vol, err := c.Volumes.Create("vm1-vol", 16*1024*1024)
	if err != nil {
		t.Fatalf("Create volume: %v", err)
	}
	p := core.New(c)
	pol := &policy.Policy{
		Tenant: tenant,
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:         "enc1",
			Type:         policy.TypeEncryption,
			MinInstances: min,
			MaxInstances: max,
			Params:       map[string]string{"key": aesKeyHex, "copyThreads": "1"},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: vol.ID, Chain: []string{"enc1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return c, p, dep, vol.ID
}

// TestReconcileScalesUpUnderSaturation drives the loop with a fake clock and
// synthetic busy-time counters: one saturated member must grow the group one
// instance per decision, respecting cooldown rounds and the max bound.
func TestReconcileScalesUpUnderSaturation(t *testing.T) {
	_, p, dep, _ := testbed(t, "tenOrchUp", 1, 3)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	o := New(Config{Platform: p, Now: clk.Now, CooldownRounds: 1})
	if err := o.Manage("tenOrchUp", "enc1"); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	// Managing an unknown tenant or middle-box is refused.
	if err := o.Manage("nobody", "enc1"); err == nil {
		t.Fatal("Manage(unknown tenant): want error")
	}
	if err := o.Manage("tenOrchUp", "enc9"); err == nil {
		t.Fatal("Manage(unknown mb): want error")
	}

	reg := obs.Default()
	saturate := func() {
		// Charge ~900ms of copy time to every member: util 0.9 next pass.
		for _, ms := range dep.GroupStatus("enc1") {
			reg.Counter("relay." + ms.Name + ".busy_ns").Add(int64(900 * time.Millisecond))
		}
	}
	step := func() {
		clk.Advance(time.Second)
		o.Reconcile()
	}

	step() // pass 1: seeds busy baselines, no decision possible
	if got := len(dep.Group("enc1")); got != 1 {
		t.Fatalf("group size after baseline pass = %d, want 1", got)
	}
	saturate()
	step() // pass 2: util 0.9 -> scale to 2
	if got := len(dep.Group("enc1")); got != 2 {
		t.Fatalf("group size after saturated pass = %d, want 2", got)
	}
	if got := reg.Gauge("orch.group.tenOrchUp.enc1.size").Value(); got != 1 {
		t.Fatalf("size gauge measured before the scale = %d, want 1", got)
	}
	saturate()
	step() // pass 3: cooldown round, no scale despite saturation
	if got := len(dep.Group("enc1")); got != 2 {
		t.Fatalf("cooldown violated: group size = %d, want 2", got)
	}
	saturate()
	step() // pass 4: util 0.9 again -> scale to 3 (= max)
	if got := len(dep.Group("enc1")); got != 3 {
		t.Fatalf("group size after second scale = %d, want 3", got)
	}
	saturate()
	step() // cooldown
	saturate()
	step() // saturated at max: must hold at 3
	if got := len(dep.Group("enc1")); got != 3 {
		t.Fatalf("group grew past maxInstances: size = %d", got)
	}
	if got := reg.Gauge("orch.group.tenOrchUp.enc1.size").Value(); got != 3 {
		t.Fatalf("size gauge = %d, want 3", got)
	}
	// Member utilization was published.
	name := dep.Group("enc1")[0].Name
	if got := reg.Gauge("orch.member." + name + ".util_permille").Value(); got < 800 || got > 1000 {
		t.Fatalf("util gauge for %s = %d permille, want ~900", name, got)
	}
}

// TestReconcileDrainsIdleMember: an over-provisioned idle group must shrink
// by draining the sessionless member, finishing the drain only once it has
// quiesced, and never dip below minInstances.
func TestReconcileDrainsIdleMember(t *testing.T) {
	c, p, dep, volID := testbed(t, "tenOrchDown", 1, 4)
	if err := dep.Scale("enc1", 2); err != nil {
		t.Fatalf("Scale to 2: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	want := bytes.Repeat([]byte{0x5A}, 4096)
	if err := av.Device.WriteAt(want, 32); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	var serving string
	for _, ms := range dep.GroupStatus("enc1") {
		if ms.Sessions > 0 {
			serving = ms.Name
		}
	}
	if serving == "" {
		t.Fatal("no member holds the spliced session")
	}

	clk := &fakeClock{t: time.Unix(2000, 0)}
	o := New(Config{Platform: p, Now: clk.Now, CooldownRounds: 1})
	if err := o.Manage("tenOrchDown", "enc1"); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	step := func() {
		clk.Advance(time.Second)
		o.Reconcile()
	}

	step() // pass 1: baselines
	step() // pass 2: all idle -> begin draining the sessionless member
	drained := ""
	for _, ms := range dep.GroupStatus("enc1") {
		if ms.Draining {
			drained = ms.Name
		}
	}
	if drained == "" || drained == serving {
		t.Fatalf("draining member = %q, want the idle one (serving %s)", drained, serving)
	}
	step() // pass 3: idle member has quiesced -> finish drain, tear down
	if got := len(dep.Group("enc1")); got != 1 {
		t.Fatalf("group size after drain completes = %d, want 1", got)
	}
	if err := c.RemoveMiddleBox(drained); !errors.Is(err, cloud.ErrNoSuchMiddleBox) {
		t.Fatalf("drained instance %s still registered in the cloud", drained)
	}
	step() // cooldown
	step()
	step() // idle at min: must never drain below minInstances
	if got := len(dep.Group("enc1")); got != 1 {
		t.Fatalf("group shrank below minInstances: size = %d", got)
	}

	// The data path survived the scale-down with zero loss.
	got := make([]byte, 4096)
	if err := av.Device.ReadAt(got, 32); err != nil {
		t.Fatalf("ReadAt after drain: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reconcile-driven scale-down lost data")
	}
}

// TestStartStopLoop smoke-tests the background ticker.
func TestStartStopLoop(t *testing.T) {
	_, p, _, _ := testbed(t, "tenOrchLoop", 1, 2)
	// Every reconcile pass of a live group reads the clock once.
	var clockReads atomic.Int64
	now := func() time.Time { clockReads.Add(1); return time.Now() }
	o := New(Config{Platform: p, Interval: 2 * time.Millisecond, Now: now})
	if err := o.Manage("tenOrchLoop", "enc1"); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	base := clockReads.Load()
	o.Start()
	o.Start() // idempotent
	testutil.WaitFor(t, 10*time.Second, "three reconcile passes", func() bool { return clockReads.Load() >= base+3 })
	o.Stop()
	o.Stop() // idempotent
	// The loop ran without panicking and the group held its size.
	dep, _ := p.Deployment("tenOrchLoop")
	if got := len(dep.Group("enc1")); got != 1 {
		t.Fatalf("idle loop changed group size to %d", got)
	}
}

// TestReconcileDropsTornDownTenant: reconciling after Teardown unmanages the
// group instead of erroring forever.
func TestReconcileDropsTornDownTenant(t *testing.T) {
	_, p, _, _ := testbed(t, "tenOrchGone", 1, 2)
	o := New(Config{Platform: p})
	if err := o.Manage("tenOrchGone", "enc1"); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	if err := p.Teardown("tenOrchGone"); err != nil {
		t.Fatalf("Teardown: %v", err)
	}
	o.Reconcile()
	// Re-managing after teardown errors cleanly (no deployment).
	if err := o.Manage("tenOrchGone", "enc1"); err == nil {
		t.Fatal("Manage after teardown: want error")
	}
}

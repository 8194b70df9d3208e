package orchestrator

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
)

// crashTestbed is testbed with durable journals enabled on the group, so a
// crashed member's acknowledged writes survive its replacement.
func crashTestbed(t *testing.T, tenant string) (*cloud.Cloud, *core.Platform, *core.TenantDeployment, *core.AttachedVolume) {
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
	p.SetStateDir(t.TempDir())
	pol := &policy.Policy{
		Tenant: tenant,
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:         "enc1",
			Type:         policy.TypeEncryption,
			MinInstances: 2,
			MaxInstances: 4,
			Params: map[string]string{
				"key":            aesKeyHex,
				"copyThreads":    "1",
				"durableJournal": "true",
			},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: vol.ID, Chain: []string{"enc1"}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return c, p, dep, dep.Volumes["vm1/"+vol.ID]
}

// TestReconcileReplacesCrashedMember: the control loop notices a dead group
// member and re-provisions it on a surviving host — outside the utilization
// state machine, keeping the group at size — after which the volume's data
// path works again.
func TestReconcileReplacesCrashedMember(t *testing.T) {
	c, p, dep, av := crashTestbed(t, "tenantX")

	want := bytes.Repeat([]byte{0x5A}, 4096)
	if err := av.Device.WriteAt(want, 8); err != nil {
		t.Fatalf("WriteAt before crash: %v", err)
	}

	// Kill the member serving the flow.
	var victim core.MemberStatus
	for _, ms := range dep.GroupStatus("enc1") {
		if ms.Sessions > 0 {
			victim = ms
		}
	}
	if victim.Name == "" {
		t.Fatal("no member holds the session")
	}
	if err := c.CrashMiddleBox(victim.Name); err != nil {
		t.Fatalf("CrashMiddleBox: %v", err)
	}

	reg := obs.NewRegistry()
	clk := &fakeClock{t: time.Unix(0, 0)}
	o := New(Config{Platform: p, Obs: reg, Now: clk.Now})
	if err := o.Manage("tenantX", "enc1"); err != nil {
		t.Fatalf("Manage: %v", err)
	}

	clk.Advance(time.Second)
	o.Reconcile()

	status := dep.GroupStatus("enc1")
	if len(status) != 2 {
		t.Fatalf("group size after reconcile = %d, want 2", len(status))
	}
	for _, ms := range status {
		if ms.Crashed {
			t.Fatalf("member %s still crashed after reconcile", ms.Name)
		}
		if ms.Name == victim.Name {
			t.Fatalf("crashed member %s still in the group", ms.Name)
		}
		if ms.Name != victim.Name && ms.Host == victim.Host && ms.Sessions > 0 {
			t.Fatalf("replacement landed back on the crashed host %s", victim.Host)
		}
	}

	// RecoverInstance re-attached the volume; the data path must serve the
	// pre-crash write and accept new ones.
	got := make([]byte, 4096)
	if err := av.Device.ReadAt(got, 8); err != nil {
		t.Fatalf("ReadAt after replacement: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("pre-crash acknowledged write lost across the replacement")
	}
	if err := av.Device.WriteAt(want, 64); err != nil {
		t.Fatalf("WriteAt after replacement: %v", err)
	}

	// A second pass makes no further changes (the loop settled).
	clk.Advance(time.Second)
	o.Reconcile()
	if got := len(dep.GroupStatus("enc1")); got != 2 {
		t.Fatalf("group size after settle pass = %d, want 2", got)
	}
}

// TestReconcileRetriesPendingRecovery: when the recovery tail fails after
// the group swap (storage outage during journal replay / re-attachment),
// the member no longer reports Crashed, so the pending-recovery tail is the
// only retry signal left — the control loop must keep re-driving it until
// it completes.
func TestReconcileRetriesPendingRecovery(t *testing.T) {
	c, p, dep, av := crashTestbed(t, "tenantY")

	want := bytes.Repeat([]byte{0xC3}, 4096)
	if err := av.Device.WriteAt(want, 8); err != nil {
		t.Fatalf("WriteAt before crash: %v", err)
	}
	var victim core.MemberStatus
	for _, ms := range dep.GroupStatus("enc1") {
		if ms.Sessions > 0 {
			victim = ms
		}
	}
	if victim.Name == "" {
		t.Fatal("no member holds the session")
	}
	if err := c.CrashMiddleBox(victim.Name); err != nil {
		t.Fatalf("CrashMiddleBox: %v", err)
	}
	// Storage outage: replacement provisioning succeeds, but the recovery
	// tail (replay / re-attach) cannot complete.
	c.Fabric.CutHost(c.StorageHost())

	reg := obs.NewRegistry()
	clk := &fakeClock{t: time.Unix(0, 0)}
	o := New(Config{Platform: p, Obs: reg, Now: clk.Now})
	if err := o.Manage("tenantY", "enc1"); err != nil {
		t.Fatalf("Manage: %v", err)
	}

	clk.Advance(time.Second)
	o.Reconcile() // replaces the crashed member; the tail fails and stays pending
	if got := len(dep.GroupStatus("enc1")); got != 2 {
		t.Fatalf("group size after replacement = %d, want 2", got)
	}
	for _, ms := range dep.GroupStatus("enc1") {
		if ms.Crashed {
			t.Fatalf("member %s still reports Crashed after the swap", ms.Name)
		}
	}
	if got := dep.PendingRecoveries("enc1"); got != 1 {
		t.Fatalf("PendingRecoveries = %d after outage-interrupted recovery, want 1", got)
	}

	clk.Advance(time.Second)
	o.Reconcile() // retry against the still-down backend keeps the tail pending
	if got := dep.PendingRecoveries("enc1"); got != 1 {
		t.Fatalf("PendingRecoveries = %d while backend still down, want 1", got)
	}
	// The failed retry leaves an event an operator can read, error included.
	var failed []string
	for _, ev := range reg.Events() {
		if ev.Kind == "orchestrator" && strings.HasPrefix(ev.Msg, "pending recovery for tenantY/enc1 failed again: ") {
			failed = append(failed, ev.Msg)
		}
	}
	if len(failed) != 1 || !strings.Contains(failed[0], "host down") {
		t.Fatalf("events for the failed retry = %q, want one carrying the recovery error (host down)", failed)
	}

	c.Fabric.HealHost(c.StorageHost())
	clk.Advance(time.Second)
	o.Reconcile() // healed: the loop completes the tail
	if got := dep.PendingRecoveries("enc1"); got != 0 {
		t.Fatalf("PendingRecoveries = %d after healed reconcile, want 0", got)
	}

	// The acknowledged pre-crash write survived and the data path is live.
	got := make([]byte, 4096)
	if err := av.Device.ReadAt(got, 8); err != nil {
		t.Fatalf("ReadAt after retried recovery: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("pre-crash acknowledged write lost across the retried recovery")
	}
	if err := av.Device.WriteAt(want, 64); err != nil {
		t.Fatalf("WriteAt after retried recovery: %v", err)
	}
}

package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/policy"
)

// crashPolicy chains vm1's volume through a scalable encryption group whose
// members keep crash-durable journals. The inflated cipher cost (4 ms of
// modelled apply per 4 KiB write) slows the write-back apply path so the
// journal holds unapplied acknowledged writes when the crash hits, even on a
// host busy enough to stretch the writes between crash ticks (otherwise the
// replay assertions would be vacuous).
func crashPolicy(volID string) *policy.Policy {
	return &policy.Policy{
		Tenant: "tenantC",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:         "enc1",
			Type:         policy.TypeEncryption,
			MinInstances: 2,
			MaxInstances: 4,
			Params: map[string]string{
				"key":                aesKeyHex,
				"durableJournal":     "true",
				"journalFsyncWindow": "1ms",
				"cipherCostNsPerKiB": "1000000",
			},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"enc1"}}},
	}
}

// corePattern is write i's 4 KiB payload, distinct per write so overwrites
// of the same LBA are order-sensitive.
func corePattern(i int) []byte {
	p := make([]byte, 4096)
	for k := range p {
		p[k] = byte(i*37 + k*13 + 5)
	}
	return p
}

const (
	coreCrashWrites = 40
	coreCrashLBAs   = 16 // < writes so later writes overwrite earlier ones
)

// servingMember returns the group member currently holding the volume's
// session.
func servingMember(t *testing.T, dep *TenantDeployment, mb string) MemberStatus {
	t.Helper()
	for _, ms := range dep.GroupStatus(mb) {
		if ms.Sessions > 0 {
			return ms
		}
	}
	t.Fatal("no group member holds a session")
	return MemberStatus{}
}

// TestCrashRecoveryEndToEnd drives the full provider-side crash story: a
// group member's VM dies mid-workload at a seed-chosen point, the platform
// provisions a replacement on a surviving host, reopens and replays the
// crashed instance's durable journal, re-attaches the volume, and the
// client retries its one unacknowledged write — ending with the volume
// byte-identical to a crash-free run and the journal directory consumed.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	c, p := fastCloud(t)
	stateDir := t.TempDir()
	p.SetStateDir(stateDir)
	_, volID := launchAndVolume(t, c, "vm1")
	dep, err := p.Apply(crashPolicy(volID))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]

	serving := servingMember(t, dep, "enc1")

	// A healthy member must be refused: recovery is for crashed relays only.
	if _, _, err := dep.RecoverInstance("enc1", serving.Name); err == nil ||
		!strings.Contains(err.Error(), "not crashed") {
		t.Fatalf("RecoverInstance on a healthy member: err = %v, want 'not crashed'", err)
	}

	sched := faults.NewSchedule()
	tick := faults.Crash(sched, 7, 4, coreCrashWrites-4, func() {
		if err := c.CrashMiddleBox(serving.Name); err != nil {
			t.Errorf("CrashMiddleBox(%s): %v", serving.Name, err)
		}
	})

	crashed := false
	replayed := 0
	for i := 0; i < coreCrashWrites; i++ {
		err := av.Device.WriteAt(corePattern(i), uint64(i%coreCrashLBAs)*8)
		if err != nil {
			if crashed {
				t.Fatalf("write %d failed after recovery: %v", i, err)
			}
			// Crash-detect: exactly the scheduled member must be down.
			var dead string
			for _, ms := range dep.GroupStatus("enc1") {
				if ms.Crashed {
					dead = ms.Name
				}
			}
			if dead != serving.Name {
				t.Fatalf("write %d failed but crashed member = %q, want %q", i, dead, serving.Name)
			}
			repl, n, rerr := dep.RecoverInstance("enc1", serving.Name)
			if rerr != nil {
				t.Fatalf("RecoverInstance at tick %d: %v", tick, rerr)
			}
			if repl.Host == serving.Host {
				t.Fatalf("replacement placed on the crashed host %q", serving.Host)
			}
			if repl.Name == serving.Name {
				t.Fatalf("replacement reused the crashed station name %q", repl.Name)
			}
			replayed = n
			crashed = true
			i-- // retry the failed, never-acknowledged write
			continue
		}
		sched.Step()
	}
	if !crashed {
		t.Fatalf("workload finished without observing the crash at tick %d", tick)
	}
	if replayed == 0 {
		t.Fatal("recovery replayed no journal records — the crash never caught unapplied acknowledged writes (vacuous test)")
	}

	if err := av.Device.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	// Every LBA must hold the payload of its last write — exactly what a
	// crash-free run would leave.
	for lba := 0; lba < coreCrashLBAs; lba++ {
		last := lba
		for last+coreCrashLBAs < coreCrashWrites {
			last += coreCrashLBAs
		}
		got := make([]byte, 4096)
		if err := av.Device.ReadAt(got, uint64(lba)*8); err != nil {
			t.Fatalf("read-back lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, corePattern(last)) {
			t.Fatalf("lba %d differs from the no-crash outcome (acknowledged write lost or misordered)", lba)
		}
	}

	// The crashed instance's journal directory is consumed by the replay.
	if entries, err := os.ReadDir(filepath.Join(stateDir, serving.Name)); err == nil && len(entries) != 0 {
		t.Fatalf("crashed instance's journal dir still holds %d entries after replay", len(entries))
	}
	// Group health: back to full strength, nobody crashed.
	status := dep.GroupStatus("enc1")
	if len(status) != 2 {
		t.Fatalf("group size after recovery = %d, want 2", len(status))
	}
	for _, ms := range status {
		if ms.Crashed {
			t.Fatalf("member %s still marked crashed after recovery", ms.Name)
		}
	}
}

// TestRecoveryRetryAfterTransientReplayFailure: a backend outage during the
// replacement's journal replay must not strand the crashed member's
// acknowledged writes. The group swap leaves a pending-recovery tail, the
// journal stays on disk, and RetryRecoveries re-drives replay and
// re-attachment to completion once the backend heals — the failure mode
// where the member no longer reports Crashed so nothing else would retry.
func TestRecoveryRetryAfterTransientReplayFailure(t *testing.T) {
	c, p := fastCloud(t)
	stateDir := t.TempDir()
	p.SetStateDir(stateDir)
	_, volID := launchAndVolume(t, c, "vm1")
	dep, err := p.Apply(crashPolicy(volID))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	serving := servingMember(t, dep, "enc1")

	const writes = 12
	for i := 0; i < writes; i++ {
		if err := av.Device.WriteAt(corePattern(i), uint64(i)*8); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := c.CrashMiddleBox(serving.Name); err != nil {
		t.Fatalf("CrashMiddleBox: %v", err)
	}

	// Storage outage: the replacement provisions and joins the group, but
	// journal replay cannot reach the backend.
	c.Fabric.CutHost(c.StorageHost())
	repl, _, rerr := dep.RecoverInstance("enc1", serving.Name)
	if rerr == nil {
		t.Fatal("RecoverInstance succeeded with the storage host cut")
	}
	if repl == nil {
		t.Fatal("replacement not provisioned despite the replay failure")
	}
	if got := dep.PendingRecoveries("enc1"); got != 1 {
		t.Fatalf("PendingRecoveries = %d after failed replay, want 1", got)
	}
	// The swap already happened: nothing reports Crashed anymore, so the
	// pending tail is the only thing keeping this recovery alive.
	for _, ms := range dep.GroupStatus("enc1") {
		if ms.Crashed {
			t.Fatalf("member %s still reports Crashed after the swap", ms.Name)
		}
		if ms.Name == serving.Name {
			t.Fatal("crashed member still in the group")
		}
	}
	if entries, err := os.ReadDir(filepath.Join(stateDir, serving.Name)); err != nil || len(entries) == 0 {
		t.Fatalf("journal dir consumed or missing after failed replay (entries=%d err=%v)", len(entries), err)
	}

	// Retrying against the still-down backend fails and keeps the tail.
	if _, err := dep.RetryRecoveries("enc1"); err == nil {
		t.Fatal("RetryRecoveries succeeded with the storage host still cut")
	}
	if got := dep.PendingRecoveries("enc1"); got != 1 {
		t.Fatalf("PendingRecoveries = %d after failed retry, want 1", got)
	}

	// Heal and retry: the journal replays, volumes re-attach, tail clears.
	c.Fabric.HealHost(c.StorageHost())
	n, err := dep.RetryRecoveries("enc1")
	if err != nil {
		t.Fatalf("RetryRecoveries after heal: %v", err)
	}
	if n == 0 {
		t.Fatal("healed retry replayed no journal records — the crash never caught unapplied acknowledged writes (vacuous test)")
	}
	if got := dep.PendingRecoveries("enc1"); got != 0 {
		t.Fatalf("PendingRecoveries = %d after successful retry, want 0", got)
	}
	if entries, err := os.ReadDir(filepath.Join(stateDir, serving.Name)); err == nil && len(entries) != 0 {
		t.Fatalf("journal dir still holds %d entries after successful retry", len(entries))
	}

	// Every acknowledged write survived the outage-interrupted recovery, and
	// the re-attached data path accepts new I/O.
	if err := av.Device.Flush(); err != nil {
		t.Fatalf("Flush after retry: %v", err)
	}
	for i := 0; i < writes; i++ {
		got := make([]byte, 4096)
		if err := av.Device.ReadAt(got, uint64(i)*8); err != nil {
			t.Fatalf("read-back %d: %v", i, err)
		}
		if !bytes.Equal(got, corePattern(i)) {
			t.Fatalf("write %d lost across the retried recovery", i)
		}
	}
	if err := av.Device.WriteAt(corePattern(99), uint64(writes)*8); err != nil {
		t.Fatalf("new write after retried recovery: %v", err)
	}
}

// TestDurableJournalRequiresStateDir: a policy asking for durable journals
// must be refused while the platform has nowhere durable to keep them.
func TestDurableJournalRequiresStateDir(t *testing.T) {
	_, p := fastCloud(t)
	c := p.cloud
	_, volID := launchAndVolume(t, c, "vm1")
	if _, err := p.Apply(crashPolicy(volID)); err == nil ||
		!strings.Contains(err.Error(), "state dir") {
		t.Fatalf("Apply without SetStateDir: err = %v, want state-dir error", err)
	}
	// With a state dir the same policy deploys.
	p.SetStateDir(t.TempDir())
	if _, err := p.Apply(crashPolicy(volID)); err != nil {
		t.Fatalf("Apply with state dir: %v", err)
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/testutil"
)

// replicatePolicy chains vm1's volume through a content-addressed
// replication box with three backends and a fast background scrubber.
func replicatePolicy(volID, scrubInterval string) *policy.Policy {
	return &policy.Policy{
		Tenant: "tenantR",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name: "cas1",
			Type: policy.TypeReplicate,
			Params: map[string]string{
				"replicaBackends": "3",
				"replicaQuorum":   "2",
				"scrubInterval":   scrubInterval,
			},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"cas1"}}},
	}
}

// waitReplicateDrained polls until the box has dispatched and committed
// every enqueued write on every backend.
func waitReplicateDrained(t *testing.T, dep *TenantDeployment, mb string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		box := dep.Replicator(mb)
		if box != nil && box.Drained() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replication box never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// imageHash reads the volume's whole logical image through the attached
// device and hashes it — the reference every backend must converge to.
func imageHash(t *testing.T, av *AttachedVolume, sizeBytes uint64) cas.ID {
	t.Helper()
	buf := make([]byte, sizeBytes)
	bs := uint64(av.Device.BlockSize())
	for off := uint64(0); off < sizeBytes; off += 64 * 1024 {
		if err := av.Device.ReadAt(buf[off:off+64*1024], off/bs); err != nil {
			t.Fatalf("image read at %d: %v", off, err)
		}
	}
	return cas.ID(sha256.Sum256(buf))
}

// TestApplyReplicatePolicy deploys the content-addressed replication
// service end to end: writes through the chain land on the primary and fan
// out to every backend, duplicate content is stored once, and the backends
// converge to the primary's logical image.
func TestApplyReplicatePolicy(t *testing.T) {
	c, p := fastCloud(t)
	p.SetStateDir(t.TempDir())
	// Stop the box workers and scrubber with the test (a no-op error if it
	// already tore down): left running, they compete with the next -count
	// iteration's.
	t.Cleanup(func() { _ = p.Teardown("tenantR") })
	if _, err := c.LaunchVM("vm1", "compute1"); err != nil {
		t.Fatalf("LaunchVM: %v", err)
	}
	const volBytes = 1 << 20
	vol, err := c.Volumes.Create("vm1-vol", volBytes)
	if err != nil {
		t.Fatalf("Create volume: %v", err)
	}
	dep, err := p.Apply(replicatePolicy(vol.ID, "0"))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := len(dep.BackendVolumes["cas1"]); got != 3 {
		t.Fatalf("backend volumes = %d, want 3", got)
	}
	av := dep.Volumes["vm1/"+vol.ID]

	// Distinct payloads on the first 8 chunks, then the same payload on 8
	// more chunks: the duplicate suffix must dedup against itself.
	chunk := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		for k := range chunk {
			chunk[k] = byte(i*31 + k*7 + 1)
		}
		if err := av.Device.WriteAt(chunk, uint64(i)*8); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for k := range chunk {
		chunk[k] = 0xAB
	}
	for i := 8; i < 16; i++ {
		if err := av.Device.WriteAt(chunk, uint64(i)*8); err != nil {
			t.Fatalf("dup write %d: %v", i, err)
		}
	}
	if err := av.Device.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	waitReplicateDrained(t, dep, "cas1")

	box := dep.Replicator("cas1")
	if box == nil {
		t.Fatal("no replicator handle")
	}
	want := imageHash(t, av, volBytes)
	for _, tg := range box.Targets() {
		got, err := tg.Store().LogicalHash()
		if err != nil {
			t.Fatalf("backend %s hash: %v", tg.Name(), err)
		}
		if got != want {
			t.Fatalf("backend %s diverges from the primary image", tg.Name())
		}
		st := tg.Store().Stats()
		if st.DedupHits == 0 {
			t.Fatalf("backend %s saw no dedup hits on a 50%%-duplicate workload", tg.Name())
		}
	}

	// Teardown retires the box's and scrubber's per-instance metric series.
	retired := obs.Default().Counter(obs.RetiredMetric).Value()
	if err := p.Teardown("tenantR"); err != nil {
		t.Fatalf("Teardown: %v", err)
	}
	if got := obs.Default().Counter(obs.RetiredMetric).Value(); got <= retired {
		t.Fatalf("Teardown retired no metric series (retired counter %d -> %d)", retired, got)
	}
}

// TestReplicateScrubRepairsThroughPlatform corrupts one backend's stored
// chunk bytes behind the box's back and waits for the policy-configured
// background scrubber to repair it from the healthy majority.
func TestReplicateScrubRepairsThroughPlatform(t *testing.T) {
	c, p := fastCloud(t)
	p.SetStateDir(t.TempDir())
	t.Cleanup(func() { _ = p.Teardown("tenantR") })
	if _, err := c.LaunchVM("vm1", "compute1"); err != nil {
		t.Fatalf("LaunchVM: %v", err)
	}
	vol, err := c.Volumes.Create("vm1-vol", 1<<20)
	if err != nil {
		t.Fatalf("Create volume: %v", err)
	}
	dep, err := p.Apply(replicatePolicy(vol.ID, "5ms"))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+vol.ID]

	payload := bytes.Repeat([]byte{0x5C}, 4096)
	if err := av.Device.WriteAt(payload, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := av.Device.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	waitReplicateDrained(t, dep, "cas1")

	if dep.Scrubber("cas1") == nil {
		t.Fatal("no scrubber despite scrubInterval=5ms")
	}
	// The scrubber has run since Apply. A pass that read slot 0 while the
	// write was in flight may have "repaired" the first replica to ack back
	// to the old majority (see scrub.RunPass) and heals it a pass later;
	// corrupting a second replica inside that window leaves no majority to
	// repair from. Inject only once all three agree.
	targets := dep.Replicator("cas1").Targets()
	testutil.WaitFor(t, 10*time.Second, "every backend to hold the payload", func() bool {
		for _, tg := range targets {
			if got, err := tg.ReadChunk(0); err != nil || !bytes.Equal(got, payload) {
				return false
			}
		}
		return true
	})
	// That Corrupt makes VerifySlot fail is cas's own test; asserting it
	// here would race the 5 ms scrubber, which may repair first.
	victim := targets[1]
	if err := victim.Store().Corrupt(0); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	testutil.WaitFor(t, 10*time.Second, "the background scrubber to repair the corrupted backend", func() bool {
		return victim.Store().VerifySlot(0) == nil
	})
	got, err := victim.ReadChunk(0)
	if err != nil {
		t.Fatalf("read repaired chunk: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("repaired chunk differs from the written payload")
	}
}

// TestReplicateCrashRecoveryConverges crash-kills the replicate instance
// mid-workload, recovers it through the platform's group machinery (the
// same RecoverInstance path the orchestrator drives), and verifies the
// replacement reopened the group's dispatch journal and backend volumes:
// after the remaining writes, every backend matches the primary image.
func TestReplicateCrashRecoveryConverges(t *testing.T) {
	c, p := fastCloud(t)
	p.SetStateDir(t.TempDir())
	t.Cleanup(func() { _ = p.Teardown("tenantR") })
	if _, err := c.LaunchVM("vm1", "compute1"); err != nil {
		t.Fatalf("LaunchVM: %v", err)
	}
	const volBytes = 1 << 20
	vol, err := c.Volumes.Create("vm1-vol", volBytes)
	if err != nil {
		t.Fatalf("Create volume: %v", err)
	}
	dep, err := p.Apply(replicatePolicy(vol.ID, "0"))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+vol.ID]

	pattern := func(i int) []byte {
		b := make([]byte, 4096)
		for k := range b {
			b[k] = byte(i*41 + k*11 + 3)
		}
		return b
	}
	const writes, lbas = 24, 12 // later writes overwrite earlier ones
	serving := dep.Group("cas1")[0]

	crashed := false
	for i := 0; i < writes; i++ {
		if i == writes/2 && !crashed {
			if err := c.CrashMiddleBox(serving.Name); err != nil {
				t.Fatalf("CrashMiddleBox: %v", err)
			}
		}
		err := av.Device.WriteAt(pattern(i), uint64(i%lbas)*8)
		if err != nil {
			if crashed {
				t.Fatalf("write %d failed after recovery: %v", i, err)
			}
			var dead string
			for _, ms := range dep.GroupStatus("cas1") {
				if ms.Crashed {
					dead = ms.Name
				}
			}
			if dead != serving.Name {
				t.Fatalf("write %d failed but crashed member = %q, want %q", i, dead, serving.Name)
			}
			repl, _, rerr := dep.RecoverInstance("cas1", serving.Name)
			if rerr != nil {
				t.Fatalf("RecoverInstance: %v", rerr)
			}
			if repl.Name == serving.Name {
				t.Fatalf("replacement reused the crashed station name %q", repl.Name)
			}
			crashed = true
			i-- // retry the failed, never-acknowledged write
			continue
		}
	}
	if !crashed {
		t.Fatal("workload finished without observing the crash")
	}
	if err := av.Device.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	waitReplicateDrained(t, dep, "cas1")

	// The replacement box reuses the group's backend volumes.
	if got := len(dep.BackendVolumes["cas1"]); got != 3 {
		t.Fatalf("backend volumes after recovery = %d, want 3", got)
	}
	// Every LBA holds its last write, and every backend matches the image.
	for lba := 0; lba < lbas; lba++ {
		last := lba
		for last+lbas < writes {
			last += lbas
		}
		got := make([]byte, 4096)
		if err := av.Device.ReadAt(got, uint64(lba)*8); err != nil {
			t.Fatalf("read-back lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, pattern(last)) {
			t.Fatalf("lba %d differs from the no-crash outcome", lba)
		}
	}
	want := imageHash(t, av, volBytes)
	box := dep.Replicator("cas1")
	for _, tg := range box.Targets() {
		got, err := tg.Store().LogicalHash()
		if err != nil {
			t.Fatalf("backend %s hash: %v", tg.Name(), err)
		}
		if got != want {
			t.Fatalf("backend %s diverges from the primary image after crash recovery", tg.Name())
		}
	}
}

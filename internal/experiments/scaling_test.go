package experiments

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/testutil"
)

// TestScalingThroughputMonotonic is the scale-out acceptance sweep: with the
// per-instance copy path saturated, aggregate write throughput must grow
// monotonically (with real margin) as the group grows 1 → 2 → 4.
func TestScalingThroughputMonotonic(t *testing.T) {
	rows, err := Scaling([]int{1, 2, 4}, 4, 512<<10)
	if err != nil {
		t.Fatalf("Scaling: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	t.Logf("\n%s", FormatScaling(rows))
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if cur.ThroughputMBps < prev.ThroughputMBps*1.15 {
			t.Fatalf("throughput not scaling: %d instances %.1f MB/s -> %d instances %.1f MB/s (want >1.15x)",
				prev.Instances, prev.ThroughputMBps, cur.Instances, cur.ThroughputMBps)
		}
	}
}

// drainEqualityRun executes the same two-flow write schedule against a
// two-member encryption group, optionally closing flow A mid-run, draining
// and removing the member it leaves idle, and re-attaching A through the
// survivor. It returns the sha256 of each volume's backing store
// (ciphertext), so a run with the drain must be byte-identical to one
// without it.
func drainEqualityRun(t *testing.T, drain bool) map[string][32]byte {
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
	p := core.New(c)

	const volBytes = 8 << 20
	pol := &policy.Policy{
		Tenant: "tenantEq",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:         "enc1",
			Type:         policy.TypeEncryption,
			MinInstances: 2,
			MaxInstances: 4,
			Params:       map[string]string{"key": aesKeyHex},
		}},
	}
	vols := make(map[string]string, 2) // vm -> volume ID
	for _, vmName := range []string{"vmA", "vmB"} {
		if _, err := c.LaunchVM(vmName, "compute1"); err != nil {
			t.Fatalf("LaunchVM(%s): %v", vmName, err)
		}
		vol, err := c.Volumes.Create(vmName+"-vol", volBytes)
		if err != nil {
			t.Fatalf("Create volume: %v", err)
		}
		vols[vmName] = vol.ID
		pol.Volumes = append(pol.Volumes, policy.VolumeBinding{
			VM: vmName, Volume: vol.ID, Chain: []string{"enc1"},
		})
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}

	write := func(vm string, phase byte) {
		av := dep.Volumes[vm+"/"+vols[vm]]
		buf := bytes.Repeat([]byte{phase, vm[2]}, 2048) // 4 KiB, distinct per phase+vm
		bs := uint64(av.Device.BlockSize())
		for i := uint64(0); i < 8; i++ {
			off := (uint64(phase)*64*1024 + i*4096) / bs
			if err := av.Device.WriteAt(buf, off); err != nil {
				t.Fatalf("phase %d write %s: %v", phase, vm, err)
			}
		}
	}
	write("vmA", 1)
	write("vmB", 1)

	if drain {
		// Flow A logs out; its member goes idle while B keeps serving.
		if err := dep.Volumes["vmA/"+vols["vmA"]].Device.Close(); err != nil {
			t.Fatalf("close vmA device: %v", err)
		}
		idle := ""
		testutil.WaitFor(t, 5*time.Second, "a member to go idle after logout", func() bool {
			for _, ms := range dep.GroupStatus("enc1") {
				if ms.Sessions == 0 {
					idle = ms.Name
				}
			}
			return idle != ""
		})
		if err := dep.BeginDrain("enc1", idle); err != nil {
			t.Fatalf("BeginDrain(%s): %v", idle, err)
		}
		testutil.WaitFor(t, 5*time.Second, "member "+idle+" to quiesce", func() bool {
			st, err := dep.DrainStatus("enc1", idle)
			if err != nil {
				t.Fatalf("DrainStatus: %v", err)
			}
			return st.Sessions == 0 && st.JournalBytes == 0 && st.JournalPending == 0
		})
		// Zero-loss gate: the drained member's journal is empty.
		if st, _ := dep.DrainStatus("enc1", idle); st.JournalBytes != 0 {
			t.Fatalf("drained member holds %d journal bytes", st.JournalBytes)
		}
		if err := dep.FinishDrain("enc1", idle); err != nil {
			t.Fatalf("FinishDrain(%s): %v", idle, err)
		}
		if err := c.RemoveMiddleBox(idle); !errors.Is(err, cloud.ErrNoSuchMiddleBox) {
			t.Fatalf("drained instance %s still registered", idle)
		}
		// A reconnects: the fresh flow hashes onto the surviving member.
		if err := dep.Reattach("vmA/" + vols["vmA"]); err != nil {
			t.Fatalf("Reattach: %v", err)
		}
	}

	write("vmA", 2)
	write("vmB", 2)

	// Writes are early-acked; flush so the backing store holds every
	// acknowledged byte before it is hashed.
	for vm, id := range vols {
		if err := dep.Volumes[vm+"/"+id].Device.Flush(); err != nil {
			t.Fatalf("flush %s: %v", vm, err)
		}
	}
	hashes := make(map[string][32]byte, len(vols))
	for vm, id := range vols {
		vol, err := c.Volumes.Get(id)
		if err != nil {
			t.Fatalf("Volumes.Get(%s): %v", id, err)
		}
		raw := make([]byte, volBytes)
		if err := vol.Device().ReadAt(raw, 0); err != nil {
			t.Fatalf("read backing store %s: %v", id, err)
		}
		hashes[vm] = sha256.Sum256(raw)
	}
	if err := p.Teardown("tenantEq"); err != nil {
		t.Fatalf("Teardown: %v", err)
	}
	return hashes
}

// TestDrainScaleDownContentEquality: a scale-down by draining in the middle
// of the write schedule must leave every volume's backing store (the
// ciphertext the provider persists) byte-identical to a run that never
// scaled — the zero-data-loss acceptance criterion.
func TestDrainScaleDownContentEquality(t *testing.T) {
	plain := drainEqualityRun(t, false)
	drained := drainEqualityRun(t, true)
	for vm, want := range plain {
		if got, ok := drained[vm]; !ok || got != want {
			t.Fatalf("volume of %s diverged after drain scale-down: %x != %x", vm, got, want)
		}
	}
	if len(plain) != len(drained) {
		t.Fatalf("run shapes differ: %d vs %d volumes", len(plain), len(drained))
	}
}

// TestScalingRowJSONShape guards the BENCH_results.json section shape.
func TestScalingRowJSONShape(t *testing.T) {
	row := ScalingRow{Instances: 2, Flows: 4, TotalBytes: 8 << 20,
		ElapsedMs: 100, ThroughputMBps: 80, SpeedupVs1: 1.9}
	s := fmt.Sprintf("%+v", row)
	for _, f := range []string{"Instances:2", "Flows:4", "ThroughputMBps:80"} {
		if !bytes.Contains([]byte(s), []byte(f)) {
			t.Fatalf("row %s missing %s", s, f)
		}
	}
}

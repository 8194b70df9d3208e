package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/policy"
	"repro/internal/sdn"
	"repro/internal/vswitch"
)

// scalingPolicy binds vm1's volume through one scalable encryption group.
func scalingPolicy(volID string, min, max int) *policy.Policy {
	return &policy.Policy{
		Tenant: "tenantS",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:         "enc1",
			Type:         policy.TypeEncryption,
			MinInstances: min,
			MaxInstances: max,
			Params:       map[string]string{"key": aesKeyHex},
		}},
		Volumes: []policy.VolumeBinding{{VM: "vm1", Volume: volID, Chain: []string{"enc1"}}},
	}
}

func TestScalableGroupLifecycle(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	dep, err := p.Apply(scalingPolicy(volID, 2, 4))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := len(dep.Group("enc1")); got != 2 {
		t.Fatalf("group seeded with %d instances, want minInstances=2", got)
	}
	av := dep.Volumes["vm1/"+volID]
	want := bytes.Repeat([]byte{0x42}, 4096)
	if err := av.Device.WriteAt(want, 16); err != nil {
		t.Fatalf("WriteAt through group: %v", err)
	}
	got := make([]byte, 4096)
	if err := av.Device.ReadAt(got, 16); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("group data path corrupted data")
	}

	if c.Controller.Group("tenantS-enc1") == nil {
		t.Fatal("no steering group installed")
	}
	before := servingMember(t, dep, "enc1").Name

	if err := dep.Scale("enc1", 4); err != nil {
		t.Fatalf("Scale to 4: %v", err)
	}
	if got := len(dep.Group("enc1")); got != 4 {
		t.Fatalf("group size after scale = %d, want 4", got)
	}
	// Flow affinity: the established connection keeps its serving instance.
	if after := servingMember(t, dep, "enc1").Name; after != before {
		t.Fatalf("scale event moved the session: %s -> %s", before, after)
	}
	// The established device keeps working through the scaled group.
	if err := av.Device.WriteAt(want, 64); err != nil {
		t.Fatalf("WriteAt after scale: %v", err)
	}
	if err := av.Device.ReadAt(got, 64); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAt after scale: err=%v equal=%v", err, bytes.Equal(got, want))
	}

	// Bounds are enforced.
	if err := dep.Scale("enc1", 5); err == nil {
		t.Fatal("scale past maxInstances: want error")
	}
	if err := dep.Scale("enc1", 1); err == nil {
		t.Fatal("direct scale-down: want error pointing at drain")
	}
	status := dep.GroupStatus("enc1")
	if len(status) != 4 {
		t.Fatalf("GroupStatus has %d members, want 4", len(status))
	}
	sessions := 0
	for _, ms := range status {
		sessions += ms.Sessions
	}
	if sessions != 1 {
		t.Fatalf("group holds %d sessions across members, want 1", sessions)
	}
}

func TestDrainScaleDownKeepsService(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	dep, err := p.Apply(scalingPolicy(volID, 2, 4))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	want := bytes.Repeat([]byte{0x17}, 4096)
	if err := av.Device.WriteAt(want, 8); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	serving := servingMember(t, dep, "enc1").Name
	var idle string
	for _, in := range dep.Group("enc1") {
		if in.Name != serving {
			idle = in.Name
		}
	}

	// The idle member quiesces immediately and tears down with zero loss.
	if err := dep.BeginDrain("enc1", idle); err != nil {
		t.Fatalf("BeginDrain(idle): %v", err)
	}
	st, err := dep.DrainStatus("enc1", idle)
	if err != nil || !st.Draining || st.Sessions != 0 || st.JournalBytes != 0 {
		t.Fatalf("DrainStatus(idle) = %+v, %v; want draining and empty", st, err)
	}
	if err := dep.FinishDrain("enc1", idle); err != nil {
		t.Fatalf("FinishDrain(idle): %v", err)
	}
	if got := len(dep.Group("enc1")); got != 1 {
		t.Fatalf("group size after drain = %d, want 1", got)
	}
	if err := c.RemoveMiddleBox(idle); !errors.Is(err, cloud.ErrNoSuchMiddleBox) {
		t.Fatal("drained instance VM still registered in the cloud")
	}

	// The data path survives the scale-down on the same serving instance.
	got := make([]byte, 4096)
	if err := av.Device.ReadAt(got, 8); err != nil {
		t.Fatalf("ReadAt after drain: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("scale-down lost data")
	}
	if st := servingMember(t, dep, "enc1").Name; st != serving {
		t.Fatalf("session moved to %s after unrelated drain", st)
	}

	// The last instance is never drained away.
	if err := dep.FinishDrain("enc1", serving); err == nil {
		t.Fatal("draining the last instance: want refusal")
	}

	// With a second instance back, the serving one still cannot finish
	// draining while its session lives.
	if err := dep.Scale("enc1", 2); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	if err := dep.BeginDrain("enc1", serving); err != nil {
		t.Fatalf("BeginDrain(serving): %v", err)
	}
	if err := dep.FinishDrain("enc1", serving); err == nil {
		t.Fatal("FinishDrain with a live session: want not-quiesced error")
	}
}

func TestDuplicateApplyExactlyOneWins(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Apply(scalingPolicy(volID, 1, 2))
		}(i)
	}
	wg.Wait()
	winners := 0
	for _, e := range errs {
		if e == nil {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("concurrent duplicate Apply: %d winners (errs=%v), want exactly 1", winners, errs)
	}
	// The loser left nothing behind: teardown the winner and re-apply.
	if err := p.Teardown("tenantS"); err != nil {
		t.Fatalf("Teardown: %v", err)
	}
	if _, err := p.Apply(scalingPolicy(volID, 1, 2)); err != nil {
		t.Fatalf("re-Apply after teardown: %v", err)
	}
	if c != nil {
		_ = p.Teardown("tenantS")
	}
}

// TestTeardownAndUpdateChainRaceApply drives Teardown and UpdateChain
// against an in-flight Apply of the same tenant (run with -race): the
// platform must neither corrupt shared state nor fail the Apply — a
// teardown of an uncommitted deployment is a clean "no deployment" error.
func TestTeardownAndUpdateChainRaceApply(t *testing.T) {
	c, p := fastCloud(t)
	_, volID := launchAndVolume(t, c, "vm1")
	depID := "tenantS/vm1/" + volID
	alt := []sdn.MBSpec{{Name: "tenantS-alt", Host: "compute2", Mode: vswitch.ModeForward}}

	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		applyErr := make(chan error, 1)
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := p.Apply(scalingPolicy(volID, 2, 4))
			applyErr <- err
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = p.Teardown("tenantS")
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = p.UpdateChain(depID, alt)
			}
		}()
		wg.Wait()
		if err := <-applyErr; err != nil {
			t.Fatalf("round %d: Apply failed under racing Teardown/UpdateChain: %v", round, err)
		}
		// Whatever the interleaving, the tenant ends in a consistent state:
		// either already torn down or torn down cleanly now.
		if err := p.Teardown("tenantS"); err == nil {
			continue
		}
		if _, ok := p.Deployment("tenantS"); ok {
			t.Fatalf("round %d: deployment present but Teardown failed", round)
		}
	}
	// The platform is still fully usable.
	dep, err := p.Apply(scalingPolicy(volID, 2, 4))
	if err != nil {
		t.Fatalf("final Apply: %v", err)
	}
	av := dep.Volumes["vm1/"+volID]
	if err := av.Device.WriteAt(bytes.Repeat([]byte{1}, 512), 0); err != nil {
		t.Fatalf("final WriteAt: %v", err)
	}
	_ = c
}

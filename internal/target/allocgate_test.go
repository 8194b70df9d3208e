//go:build !race

// The race detector instruments allocations, so the budget only holds on
// plain builds; `make allocs` runs this gate alongside (not inside) the race
// pass.

package target_test

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/target"
)

// goroutineCommandAllocBudget caps the heap objects of one command the
// target runs on a goroutine of its own, both ends of the unmodelled leg
// included: the goroutine's closure. The command state is pooled.
const goroutineCommandAllocBudget = 1

// TestGoroutineCommandAllocBudget drives a target without inline execution,
// so every command takes the path a pipelined arrival takes, and counts the
// whole process's allocations per 4 KiB write and read.
func TestGoroutineCommandAllocBudget(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Model{})
	sh, err := fabric.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := fabric.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	srv := target.NewServer()
	if err := srv.AddTarget(testIQN, disk); err != nil {
		t.Fatal(err)
	}
	ln, err := sh.NewEndpoint("tgtd").Listen(netsim.StorageNet, 3260)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	conn, err := ch.NewEndpoint("vm").Dial(netsim.StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := initiator.Login(conn, initiator.Config{InitiatorIQN: "iqn.vm1", TargetIQN: testIQN})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sess.Close() })

	buf := make([]byte, 4096)
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"write", func() error { return sess.Write(64, buf, 512) }},
		{"read", func() error { _, err := sess.ReadInto(buf, 64, 8, 512); return err }},
	} {
		for i := 0; i < 256; i++ { // warm the pools
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(500, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("goroutine-executed 4 KiB %s: %.1f allocs/op (budget %d)", c.name, avg, goroutineCommandAllocBudget)
		if avg > goroutineCommandAllocBudget {
			t.Errorf("goroutine-executed 4 KiB %s allocates %.1f objects, budget %d", c.name, avg, goroutineCommandAllocBudget)
		}
	}
}

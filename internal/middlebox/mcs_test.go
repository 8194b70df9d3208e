package middlebox

import (
	"crypto/sha256"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/target"
)

// mcsRun drives a write workload from a VM through an active relay whose
// downstream leg is an MC/S session of forwardConns connections, over the
// netsim fabric. The relay's second forward dial is routed through a
// separate fabric host ("mbaux"), so netsim.CutLink("mbaux", "storage1")
// severs exactly one of the N forward connections — the leading connection
// and the remaining secondaries stay up, which is the 1-of-N failure the
// initiator must absorb by redistributing in-flight commands.
//
// The workload writes every LBA twice with different patterns, so any
// reordering of overlapping commands during redistribution changes the
// final content hash. Fault timing is schedule-driven, one tick per
// acknowledged write.
func mcsRun(t *testing.T, forwardConns int, cuts ...uint64) ([32]byte, *Journal) {
	t.Helper()
	model := netsim.Model{MTU: 8 * 1024, Bandwidth: 1 << 32,
		Latency: map[netsim.HopKind]time.Duration{}, PerPacket: map[netsim.HopKind]time.Duration{}}
	fab := netsim.NewFabric(model)
	vmHost, err := fab.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	mbHost, err := fab.AddHost("mb1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.50"})
	if err != nil {
		t.Fatal(err)
	}
	auxHost, err := fab.AddHost("mbaux", map[netsim.Network]string{netsim.StorageNet: "10.0.0.51"})
	if err != nil {
		t.Fatal(err)
	}
	storHost, err := fab.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		t.Fatal(err)
	}

	disk, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:mcs"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		t.Fatal(err)
	}
	storLn, err := storHost.NewEndpoint("tgt").Listen(netsim.StorageNet, 3260)
	if err != nil {
		t.Fatal(err)
	}
	go tsrv.Serve(storLn)

	// Forward dial #2 (the first secondary, CID 1) goes out through mbaux;
	// every other dial — the leading connection, later secondaries, and any
	// reattach after the cut — uses mb1. CutLink("mbaux", "storage1") can
	// therefore abort exactly one member of the session.
	mbEP := mbHost.NewEndpoint("relay")
	auxEP := auxHost.NewEndpoint("relay-aux")
	var dials atomic.Int32
	dial := func(next netsim.Addr) (net.Conn, error) {
		if dials.Add(1) == 2 && forwardConns > 1 {
			return auxEP.DialAddr(next)
		}
		return mbEP.DialAddr(next)
	}

	relay, err := NewRelay(Config{
		Name:         "mb1",
		Mode:         Active,
		Dial:         dial,
		NextHop:      netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:         CostModel{MTU: 8192, BatchSize: 65536},
		ForwardConns: forwardConns,
	})
	if err != nil {
		t.Fatal(err)
	}
	mbLn, err := mbHost.NewEndpoint("front").Listen(netsim.StorageNet, 3260)
	if err != nil {
		t.Fatal(err)
	}
	go relay.Serve(mbLn)
	t.Cleanup(func() {
		relay.Close()
		tsrv.Close()
	})

	front, err := vmHost.NewEndpoint("vm").Dial(netsim.StorageNet, "10.0.0.50:3260")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := initiator.Login(front, initiator.Config{
		InitiatorIQN: "iqn.vm-mcs", TargetIQN: iqn,
	})
	if err != nil {
		t.Fatalf("login through relay: %v", err)
	}
	js := relay.AllJournals()
	if len(js) != 1 {
		t.Fatalf("relay lists %d session journals after login, want 1", len(js))
	}
	j := js[0]

	var aborted atomic.Int32
	sched := faults.NewSchedule()
	for _, tick := range cuts {
		sched.At(tick, fmt.Sprintf("cut-aux@%d", tick), func() {
			aborted.Add(int32(fab.CutLink("mbaux", "storage1")))
		})
	}

	// Two passes over the same LBAs: pass 2 overwrites pass 1, so the final
	// hash detects both lost writes and misordered overlapping writes.
	const lbas = 48
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lbas; i++ {
			p := make([]byte, 512)
			for k := range p {
				p[k] = byte(i*7 + k + pass*131)
			}
			if err := sess.Write(uint64(i), p, 512); err != nil {
				t.Fatalf("pass %d write %d: %v", pass, i, err)
			}
			sched.Step()
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if fired := sched.Fired(); len(fired) != len(cuts) {
		t.Fatalf("fired %v, want %d cuts", fired, len(cuts))
	}
	if len(cuts) > 0 {
		if got := aborted.Load(); got != 1 {
			t.Fatalf("CutLink(mbaux, storage1) aborted %d connections, want exactly 1 (the test must cut 1-of-%d forward conns)", got, forwardConns)
		}
	}

	h := sha256.New()
	for i := 0; i < lbas; i++ {
		b, err := sess.Read(uint64(i), 1, 512)
		if err != nil {
			t.Fatalf("read-back %d: %v", i, err)
		}
		h.Write(b)
	}
	if err := sess.Logout(); err != nil {
		t.Fatalf("logout: %v", err)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, j
}

// TestMCSForwardCutRedistributes is the MC/S failure-matrix acceptance test:
// with a 3-connection downstream leg, cutting one secondary mid-workload
// must not lose or reorder data. The initiator redistributes that
// connection's in-flight commands onto the survivors, so the fault is
// absorbed entirely below the journal layer — the relay's recovery machinery
// never fires and the content matches a single-connection no-fault baseline.
func TestMCSForwardCutRedistributes(t *testing.T) {
	wantHash, baseJ := mcsRun(t, 1)
	if used := baseJ.UsedBytes(); used != 0 {
		t.Fatalf("single-conn baseline left %d journal bytes", used)
	}

	gotHash, j := mcsRun(t, 3, 40)
	if gotHash != wantHash {
		t.Fatal("content hash after 1-of-3 forward-conn cut differs from single-conn baseline (lost or misordered blocks)")
	}
	if used := j.UsedBytes(); used != 0 {
		t.Errorf("Journal.UsedBytes() = %d after redistributed run, want 0", used)
	}
	if j.Pending() != 0 {
		t.Errorf("Journal.Pending() = %d after redistributed run, want 0", j.Pending())
	}
	// A 1-of-N cut is handled inside the MC/S session: surviving connections
	// pick up the dead connection's commands and the backend WriteAt never
	// surfaces an error, so the journal must record no failures.
	if n := failures(j); n != 0 {
		t.Errorf("journal recorded %d failures, want 0 (cut should be absorbed by MC/S redistribution)", n)
	}
}

// TestMCSMultiConnCleanRun checks the no-fault MC/S matrix cell: a
// 3-connection forward leg with commands round-robined across members must
// produce content identical to the single-connection baseline.
func TestMCSMultiConnCleanRun(t *testing.T) {
	wantHash, _ := mcsRun(t, 1)
	gotHash, j := mcsRun(t, 3)
	if gotHash != wantHash {
		t.Fatal("multi-conn clean run content differs from single-conn baseline")
	}
	if used := j.UsedBytes(); used != 0 {
		t.Errorf("Journal.UsedBytes() = %d, want 0", used)
	}
}

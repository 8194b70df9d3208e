package middlebox

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/target"
	"repro/internal/testutil"
)

// TestTraceSpansAcrossTwoMiddleBoxChain verifies end-to-end trace
// propagation: a command issued by the initiator through a two-middle-box
// chain must leave per-stage latency observations at every station —
// initiator, each relay's service and forward legs, and the back-end
// target.
func TestTraceSpansAcrossTwoMiddleBoxChain(t *testing.T) {
	reg := obs.NewRegistry()

	disk, err := blockdev.NewMemDisk(512, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tsrv := target.NewServer(target.WithObs(reg, obs.StageTarget))
	const iqn = "iqn.2016-04.edu.purdue.storm:vol1"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		t.Fatal(err)
	}

	relay2, err := NewRelay(Config{
		Name: "mb2",
		Mode: Active,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := net.Pipe()
			go tsrv.Serve(newOneShotListener(s))
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:    CostModel{MTU: 8192, BatchSize: 65536},
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("NewRelay mb2: %v", err)
	}
	relay1, err := NewRelay(Config{
		Name: "mb1",
		Mode: Passive,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := net.Pipe()
			go relay2.Serve(newOneShotListener(s))
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.InstanceNet, IP: "192.168.20.2", Port: 3260},
		Cost:    CostModel{MTU: 8192, BatchSize: 65536},
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("NewRelay mb1: %v", err)
	}

	front, back := net.Pipe()
	go relay1.Serve(newOneShotListener(back))
	t.Cleanup(func() {
		relay1.Close()
		relay2.Close()
		tsrv.Close()
	})

	sess, err := initiator.Login(front, initiator.Config{
		InitiatorIQN: "iqn.vm1",
		TargetIQN:    iqn,
		Obs:          reg,
	})
	if err != nil {
		t.Fatalf("Login through chain: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })

	want := bytes.Repeat([]byte{0xC4}, 4096)
	if err := sess.Write(16, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(16, 8, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chain corrupted data")
	}

	// Collect the distinct stages that recorded at least one span,
	// stripping the .read/.write/.ctl suffix.
	snap := reg.Snapshot()
	stages := make(map[string]bool)
	for name, s := range snap.Histograms {
		if s.Count == 0 || !strings.HasPrefix(name, obs.StagePrefix) {
			continue
		}
		stage := strings.TrimPrefix(name, obs.StagePrefix)
		for _, suffix := range []string{".read", ".write", ".ctl"} {
			stage = strings.TrimSuffix(stage, suffix)
		}
		stages[stage] = true
	}
	for _, stage := range []string{
		obs.StageInitiator,
		obs.RelayServiceStage("mb1"),
		obs.RelayForwardStage("mb1"),
		obs.RelayServiceStage("mb2"),
		obs.RelayForwardStage("mb2"),
		obs.StageTarget,
	} {
		if !stages[stage] {
			t.Errorf("stage %q recorded no spans (got %v)", stage, stages)
		}
	}
	if len(stages) < 5 {
		t.Errorf("only %d distinct stages traced, want >= 5: %v", len(stages), stages)
	}
}

// delayDisk injects a settable per-request latency ahead of the inner
// device — the "slow I/O" for the tail-retention test.
type delayDisk struct {
	blockdev.Device
	delay atomic.Int64 // ns
}

func (d *delayDisk) ReadAt(p []byte, lba uint64) error {
	if ns := d.delay.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
	return d.Device.ReadAt(p, lba)
}

func (d *delayDisk) WriteAt(p []byte, lba uint64) error {
	if ns := d.delay.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
	return d.Device.WriteAt(p, lba)
}

// TestTracePropagationTwoMiddleBoxChain exercises the tracing plane end
// to end: with tracing enabled and every inter-station connection backed
// by a tracedPipe carrier, each command's spans — initiator root, both
// relays' service and forward legs, target — must collect under one
// stable trace ID with parent links forming a causal chain, and the
// tail-based retention must keep an injected slow read as the top
// exemplar. Run with -race: it crosses every propagation hand-off.
func TestTracePropagationTwoMiddleBoxChain(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTracing(obs.TraceConfig{SlowPerStage: 4, SampleEvery: -1})

	mem, err := blockdev.NewMemDisk(512, 2048)
	if err != nil {
		t.Fatal(err)
	}
	disk := &delayDisk{Device: mem}
	tsrv := target.NewServer(target.WithObs(reg, obs.StageTarget))
	const iqn = "iqn.2016-04.edu.purdue.storm:vol1"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		t.Fatal(err)
	}

	relay2, err := NewRelay(Config{
		Name: "mb2",
		Mode: Active,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := tracedPipe()
			go tsrv.Serve(newOneShotListener(s))
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:    CostModel{MTU: 8192, BatchSize: 65536},
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("NewRelay mb2: %v", err)
	}
	relay1, err := NewRelay(Config{
		Name: "mb1",
		Mode: Passive,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := tracedPipe()
			go relay2.Serve(newOneShotListener(s))
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.InstanceNet, IP: "192.168.20.2", Port: 3260},
		Cost:    CostModel{MTU: 8192, BatchSize: 65536},
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("NewRelay mb1: %v", err)
	}

	front, back := tracedPipe()
	go relay1.Serve(newOneShotListener(back))
	t.Cleanup(func() {
		relay1.Close()
		relay2.Close()
		tsrv.Close()
	})

	sess, err := initiator.Login(front, initiator.Config{
		InitiatorIQN: "iqn.vm1",
		TargetIQN:    iqn,
		Obs:          reg,
	})
	if err != nil {
		t.Fatalf("Login through chain: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })

	data := bytes.Repeat([]byte{0x5A}, 4096)
	if err := sess.Write(0, data, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sess.Read(0, 8, 512); err != nil {
			t.Fatalf("fast read %d: %v", i, err)
		}
	}
	const slowDelay = 5 * time.Millisecond
	disk.delay.Store(int64(slowDelay))
	if _, err := sess.Read(0, 8, 512); err != nil {
		t.Fatalf("slow read: %v", err)
	}
	disk.delay.Store(0)

	// Downstream stations end their spans after sending the response, so
	// the deepest spans can land moments after the initiator returns (the
	// retention grace window absorbs them): poll until the slowest trace
	// carries the target stage.
	var tr obs.TraceRecord
	testutil.WaitFor(t, 5*time.Second, "the slowest trace to carry the target stage", func() bool {
		tr = obs.TraceRecord{}
		for _, rec := range reg.Traces() {
			if rec.Slow && rec.Dur > tr.Dur {
				tr = rec
			}
		}
		for _, sp := range tr.Spans {
			if sp.Stage == obs.StageTarget {
				return true
			}
		}
		return false
	})
	if tr.Root != obs.StageInitiator {
		t.Errorf("slowest trace root = %q, want %q", tr.Root, obs.StageInitiator)
	}
	if tr.Dur < slowDelay {
		t.Errorf("slowest trace dur %v; injected slow I/O (%v) not retained as top exemplar", tr.Dur, slowDelay)
	}

	// Every span belongs to the one trace record (stable trace ID) and the
	// parent links must form a causal chain: each non-root span's parent is
	// another span of the same trace, and the deepest stage (target) must
	// reach the initiator root by walking parents.
	byID := make(map[uint64]obs.SpanRecord, len(tr.Spans))
	var rootID uint64
	for _, sp := range tr.Spans {
		if sp.ID == 0 {
			t.Fatalf("span with zero ID: %+v", sp)
		}
		byID[sp.ID] = sp
		if sp.Parent == 0 {
			if rootID != 0 {
				t.Errorf("two parentless spans (%d and %d)", rootID, sp.ID)
			}
			rootID = sp.ID
		}
	}
	if rootID == 0 || byID[rootID].Stage != obs.StageInitiator {
		t.Fatalf("no initiator root span; spans: %+v", tr.Spans)
	}
	for _, sp := range tr.Spans {
		if sp.Parent == 0 {
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %d (%s) has dangling parent %d", sp.ID, sp.Stage, sp.Parent)
		}
	}
	stageOf := make(map[string]obs.SpanRecord)
	for _, sp := range tr.Spans {
		stageOf[sp.Stage] = sp
	}
	for _, stage := range []string{
		obs.RelayServiceStage("mb1"), obs.RelayForwardStage("mb1"),
		obs.RelayServiceStage("mb2"), obs.RelayForwardStage("mb2"),
		obs.StageTarget,
	} {
		if _, ok := stageOf[stage]; !ok {
			t.Errorf("trace missing stage %q (spans: %+v)", stage, tr.Spans)
		}
	}
	// Walk the target span's ancestry to the root.
	if tgt, ok := stageOf[obs.StageTarget]; ok {
		seen := 0
		for cur := tgt; cur.Parent != 0; cur = byID[cur.Parent] {
			if seen++; seen > len(tr.Spans) {
				t.Fatal("parent cycle in trace")
			}
		}
		if cur := func() obs.SpanRecord { // re-walk to inspect terminus
			c := tgt
			for c.Parent != 0 {
				c = byID[c.Parent]
			}
			return c
		}(); cur.ID != rootID {
			t.Errorf("target span ancestry ends at %d (%s), want root %d", cur.ID, cur.Stage, rootID)
		}
	}
}

// tracedConn overlays a shared trace table on an in-memory pipe end.
type tracedConn struct {
	net.Conn
	tbl *obs.TraceTable
}

func (c tracedConn) TraceTable() *obs.TraceTable { return c.tbl }

// tracedPipe is net.Pipe plus a shared trace carrier (obs.TraceCarrier).
func tracedPipe() (net.Conn, net.Conn) {
	c1, c2 := net.Pipe()
	tbl := obs.NewTraceTable()
	return tracedConn{c1, tbl}, tracedConn{c2, tbl}
}

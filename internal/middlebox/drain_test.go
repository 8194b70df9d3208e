package middlebox

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/target"
	"repro/internal/testutil"
	"repro/internal/xerr"
)

// multiListener yields pushed connections until closed, letting a test open
// several front sessions against one relay.
type multiListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newMultiListener() *multiListener {
	return &multiListener{ch: make(chan net.Conn, 8), done: make(chan struct{})}
}

func (l *multiListener) push(c net.Conn) { l.ch <- c }

func (l *multiListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, errors.New("closed")
	}
}

func (l *multiListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *multiListener) Addr() net.Addr { return netsim.Addr{} }

// drainTestbed builds a relay in front of a real target and returns it with
// a login function that opens a fresh front session.
func drainTestbed(t *testing.T, mode Mode, reg *obs.Registry) (*Relay, func() (*initiator.Session, error)) {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:vol1"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelay(Config{
		Name: "mb1",
		Mode: mode,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := net.Pipe()
			go tsrv.Serve(newOneShotListener(s))
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		// Non-zero model with zero per-op costs: functional test, no sleeps.
		Cost: CostModel{MTU: 8192, BatchSize: 65536},
		Obs:  reg,
	})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	ml := newMultiListener()
	go relay.Serve(ml)
	t.Cleanup(func() {
		relay.Close()
		tsrv.Close()
	})
	login := func() (*initiator.Session, error) {
		front, back := net.Pipe()
		ml.push(back)
		return initiator.Login(front, initiator.Config{InitiatorIQN: "iqn.vm1", TargetIQN: iqn})
	}
	return relay, login
}

func waitQuiesced(t *testing.T, r *Relay) {
	t.Helper()
	testutil.WaitFor(t, 2*time.Second, "relay to quiesce", r.Quiesced)
}

func TestRelayDrainLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	relay, login := drainTestbed(t, Active, reg)

	sess, err := login()
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	if got := relay.ActiveSessions(); got != 1 {
		t.Fatalf("ActiveSessions = %d, want 1", got)
	}
	if got := reg.Gauge("relay.mb1.sessions").Value(); got != 1 {
		t.Fatalf("sessions gauge = %d, want 1", got)
	}

	relay.Drain()
	if !relay.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if relay.Quiesced() {
		t.Fatal("Quiesced() true with a live session")
	}
	// New logins are refused while draining — and the refusal travels the
	// wire as a terminal status, so initiators fail fast instead of
	// redialing an instance that is going away.
	if _, err := login(); err == nil {
		t.Fatal("login during drain succeeded, want refusal")
	} else if !xerr.IsTerminal(err) {
		t.Fatalf("drain refusal classed %v (%v), want Terminal on the initiator side", xerr.Classify(err), err)
	}
	// ...but the established session keeps full service.
	if err := sess.Write(0, make([]byte, 512), 512); err != nil {
		t.Fatalf("Write during drain: %v", err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("Flush during drain: %v", err)
	}
	st := relay.DrainStatus()
	if !st.Draining || st.Sessions != 1 {
		t.Fatalf("DrainStatus = %+v, want draining with 1 session", st)
	}

	_ = sess.Close()
	waitQuiesced(t, relay)
	st = relay.DrainStatus()
	if st.Sessions != 0 || st.JournalBytes != 0 || st.JournalPending != 0 {
		t.Fatalf("DrainStatus after quiesce = %+v, want all zero", st)
	}
	if got := reg.Gauge("relay.mb1.sessions").Value(); got != 0 {
		t.Fatalf("sessions gauge after quiesce = %d, want 0", got)
	}
}

func TestRelayPassiveDrainCountsSessions(t *testing.T) {
	relay, login := drainTestbed(t, Passive, nil)
	s1, err := login()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := login()
	if err != nil {
		t.Fatal(err)
	}
	if got := relay.ActiveSessions(); got != 2 {
		t.Fatalf("ActiveSessions = %d, want 2", got)
	}
	relay.Drain()
	_ = s1.Close()
	_ = s2.Close()
	waitQuiesced(t, relay)
}

// TestCopyGateSerializesInterception checks that CostModel.CopyThreads
// bounds concurrent copies: with one thread, four 10ms copies across two
// sessions must take at least ~40ms of wall clock, and the busy counter
// accounts the charged time.
func TestCopyGateSerializesInterception(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{}, 1)
	busy := obs.NewRegistry().Counter("busy")
	cost := CostModel{PassivePerPacket: 10 * time.Millisecond, MTU: 8192, CopyThreads: 1}
	mk := func() *interceptDevice {
		d := newInterceptDevice(disk, Passive, cost, nil)
		d.gate = gate
		d.busy = busy
		return d
	}
	sessions := []*interceptDevice{mk(), mk()}
	start := time.Now()
	var wg sync.WaitGroup
	for _, d := range sessions {
		wg.Add(1)
		go func(d *interceptDevice) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if err := d.ReadAt(make([]byte, 512), 0); err != nil {
					t.Errorf("ReadAt: %v", err)
				}
			}
		}(d)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 38*time.Millisecond {
		t.Errorf("gated copies overlapped: 4 serialized 10ms copies finished in %v", elapsed)
	}
	if got := busy.Value(); got < int64(40*time.Millisecond) {
		t.Errorf("busy counter = %dns, want >= 40ms of charged copy time", got)
	}
}

func TestDefaultCostPreservedWithCopyThreads(t *testing.T) {
	// Setting only CopyThreads must still substitute the default per-op
	// costs, as a fully zero model does.
	r, err := NewRelay(Config{
		Name:    "mb1",
		Mode:    Active,
		NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.1", Port: 3260},
		Dial:    func(netsim.Addr) (net.Conn, error) { return nil, errors.New("unused") },
		Cost:    CostModel{CopyThreads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultCostModel()
	if r.cfg.Cost.ActivePerBatch != def.ActivePerBatch || r.cfg.Cost.PassivePerPacket != def.PassivePerPacket {
		t.Fatalf("cost model = %+v, want defaults with CopyThreads=2", r.cfg.Cost)
	}
	if r.CopyThreads() != 2 {
		t.Fatalf("CopyThreads() = %d, want 2", r.CopyThreads())
	}
	if cap(r.copyGate) != 2 {
		t.Fatalf("copy gate capacity = %d, want 2", cap(r.copyGate))
	}
}

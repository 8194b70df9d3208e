package middlebox

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/target"
	"repro/internal/testutil"
)

// connQueue is a listener fed by tests: every connection pushed to ch is
// accepted by the serving loop, so one Serve goroutine handles any number of
// sessions (unlike oneShotListener).
type connQueue struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newConnQueue() *connQueue {
	return &connQueue{ch: make(chan net.Conn, 4), done: make(chan struct{})}
}

func (l *connQueue) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, errors.New("closed")
	}
}

func (l *connQueue) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *connQueue) Addr() net.Addr { return netsim.Addr{} }

// TestRelayRetiresJournalsAcrossSessionChurn is the regression test for the
// journal-registry leak: a thousand login/logout cycles must not accumulate
// journals — each session's journal retires once it closes clean.
func TestRelayRetiresJournalsAcrossSessionChurn(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:churn"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		t.Fatal(err)
	}
	backendQ := newConnQueue()
	go tsrv.Serve(backendQ)

	relay, err := NewRelay(Config{
		Name: "mb-churn",
		Mode: Active,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := net.Pipe()
			backendQ.ch <- s
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:    CostModel{MTU: 8192, BatchSize: 65536},
	})
	if err != nil {
		t.Fatal(err)
	}
	frontQ := newConnQueue()
	go relay.Serve(frontQ)
	t.Cleanup(func() {
		relay.Close()
		tsrv.Close()
	})

	payload := bytes.Repeat([]byte{0xC7}, 512)
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		front, back := net.Pipe()
		frontQ.ch <- back
		sess, err := initiator.Login(front, initiator.Config{
			InitiatorIQN: "iqn.vm-churn", TargetIQN: iqn,
		})
		if err != nil {
			t.Fatalf("cycle %d: login: %v", i, err)
		}
		if err := sess.Write(uint64(i%32), payload, 512); err != nil {
			t.Fatalf("cycle %d: write: %v", i, err)
		}
		if err := sess.Logout(); err != nil {
			t.Fatalf("cycle %d: logout: %v", i, err)
		}
	}

	// Session teardown on the relay side is asynchronous with Logout's
	// response; wait for the registry to empty out.
	testutil.WaitFor(t, 10*time.Second, "clean sessions' journals to retire", func() bool { return len(relay.AllJournals()) == 0 })
}

// TestRelayKeepsDirtySessionJournal: a session whose early-acknowledged
// write never reached the backend stays in the registry after logout, its
// failure on record for audit, and a later crash-kill passes over it.
func TestRelayKeepsDirtySessionJournal(t *testing.T) {
	mem, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewFaultDisk(mem)
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:dirty"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		t.Fatal(err)
	}
	backendQ := newConnQueue()
	go tsrv.Serve(backendQ)
	relay, err := NewRelay(Config{
		Name: "mb-dirty",
		Mode: Active,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := net.Pipe()
			backendQ.ch <- s
			return c, nil
		},
		NextHop:  netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:     CostModel{MTU: 8192, BatchSize: 65536},
		Recovery: RecoveryConfig{MaxReopens: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	frontQ := newConnQueue()
	go relay.Serve(frontQ)
	t.Cleanup(func() {
		relay.Close()
		tsrv.Close()
	})

	front, back := net.Pipe()
	frontQ.ch <- back
	sess, err := initiator.Login(front, initiator.Config{InitiatorIQN: "iqn.vm-dirty", TargetIQN: iqn})
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	disk.Trip(errors.New("medium gone"))
	if err := sess.Write(3, bytes.Repeat([]byte{0xD1}, 512), 512); err != nil {
		t.Fatalf("write should early-ack: %v", err)
	}
	if err := sess.Flush(); err == nil {
		t.Fatal("flush succeeded with the backend gone")
	}
	_ = sess.Logout()
	testutil.WaitFor(t, 10*time.Second, "the session to close", func() bool { return relay.ActiveSessions() == 0 })

	js := relay.AllJournals()
	if len(js) != 1 || len(js[0].Failures()) == 0 {
		t.Fatalf("after a dirty logout the relay lists %d journal(s), want 1 holding the failure", len(js))
	}
	relay.Kill()
	if got := relay.AllJournals(); len(got) != 1 || got[0] != js[0] {
		t.Fatal("crash-kill dropped the dirty session's journal from the audit list")
	}
}

// chaosRun drives one write workload from a VM through an active relay, whose
// forward session has forwardConns MC/S connections, to a storage target over
// the netsim fabric, cutting the relay→storage link (every forward
// connection) at the given logical ticks, and returns the content hash read
// back through the relay plus the session journal for post-run audit. Fault
// timing is purely schedule-driven: the clock advances once per acknowledged
// write.
func chaosRun(t *testing.T, forwardConns int, cuts ...uint64) ([32]byte, *Journal) {
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
	storHost, err := fab.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		t.Fatal(err)
	}

	disk, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:chaos"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		t.Fatal(err)
	}
	ln, err := storHost.NewEndpoint("tgt").Listen(netsim.StorageNet, 3260)
	if err != nil {
		t.Fatal(err)
	}
	storLn := &countingListener{Listener: ln}
	go tsrv.Serve(storLn)

	relay, err := NewRelay(Config{
		Name:         "mb1",
		Mode:         Active,
		Endpoint:     mbHost.NewEndpoint("relay"),
		NextHop:      netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:         CostModel{MTU: 8192, BatchSize: 65536},
		ForwardConns: forwardConns,
		Recovery:     RecoveryConfig{BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond},
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
		InitiatorIQN: "iqn.vm-chaos", TargetIQN: iqn,
	})
	if err != nil {
		t.Fatalf("login through relay: %v", err)
	}
	requireAccepted(t, storLn, forwardConns)
	js := relay.AllJournals()
	if len(js) != 1 {
		t.Fatalf("relay lists %d session journals after login, want 1", len(js))
	}
	j := js[0]

	sched := faults.NewSchedule()
	for _, tick := range cuts {
		sched.At(tick, fmt.Sprintf("cut@%d", tick), func() {
			fab.CutLink("mb1", "storage1")
		})
	}

	const n = 48
	for i := 0; i < n; i++ {
		p := make([]byte, 512)
		for k := range p {
			p[k] = byte(i*7 + k)
		}
		if err := sess.Write(uint64(i), p, 512); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		sched.Step()
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if fired := sched.Fired(); len(fired) != len(cuts) {
		t.Fatalf("fired %v, want %d cuts", fired, len(cuts))
	}

	h := sha256.New()
	for i := 0; i < n; i++ {
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

// TestChaosBackendCutReplaysJournal is the acceptance chaos scenario: the
// relay's backend link is cut twice mid-workload; the relay must reconnect,
// replay the journal in sequence order, and finish the workload with content
// identical to a no-fault single-connection run and zero stuck journal
// bytes — over a single-connection forward session and over a
// two-connection MC/S one, where the cut takes down every member at once.
func TestChaosBackendCutReplaysJournal(t *testing.T) {
	wantHash, cleanJournal := chaosRun(t, 1)
	if used := cleanJournal.UsedBytes(); used != 0 {
		t.Fatalf("no-fault run left %d journal bytes", used)
	}

	for _, conns := range []int{1, 2} {
		t.Run(fmt.Sprintf("conns%d", conns), func(t *testing.T) {
			gotHash, j := chaosRun(t, conns, 10, 30)
			if gotHash != wantHash {
				t.Fatal("content hash after backend cuts differs from no-fault run (lost or misordered blocks)")
			}
			if used := j.UsedBytes(); used != 0 {
				t.Errorf("Journal.UsedBytes() = %d after recovered run, want 0", used)
			}
			if j.Pending() != 0 {
				t.Errorf("Journal.Pending() = %d after recovered run, want 0", j.Pending())
			}
			if len(j.Failures()) == 0 {
				t.Error("backend cuts recorded no journal failures (fault never bit the data path?)")
			}
		})
	}
}

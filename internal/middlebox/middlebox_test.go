package middlebox

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/target"
	"repro/internal/testutil"
)

func TestJournalLifecycle(t *testing.T) {
	j := NewJournal(0)
	seq, _, err := j.Append(10, []byte("abcd"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if j.Pending() != 1 || j.UsedBytes() != 4 {
		t.Errorf("pending=%d used=%d, want 1/4", j.Pending(), j.UsedBytes())
	}
	j.Complete(seq, nil)
	if j.Pending() != 0 || j.UsedBytes() != 0 {
		t.Errorf("after Complete: pending=%d used=%d", j.Pending(), j.UsedBytes())
	}
	if failures(j) != 0 {
		t.Error("unexpected failures")
	}
}

func TestJournalFailureRecorded(t *testing.T) {
	j := NewJournal(0)
	seq, _, _ := j.Append(5, []byte("data"))
	wantErr := errors.New("backend gone")
	j.Complete(seq, wantErr)
	if n := failures(j); n != 1 {
		t.Errorf("%d failures recorded, want 1", n)
	}
	// Failed entries keep their space (data not yet safe downstream).
	if j.UsedBytes() != 4 {
		t.Errorf("UsedBytes = %d, want 4", j.UsedBytes())
	}
	j.Complete(999, nil) // unknown seq: no-op
}

func TestJournalCopiesData(t *testing.T) {
	j := NewJournal(0)
	buf := []byte("orig")
	j.Append(0, buf)
	buf[0] = 'X'
	// No direct accessor; validate via used bytes + absence of panic. The
	// copy property is also covered by the write-back test below.
	if j.UsedBytes() != 4 {
		t.Error("journal lost data")
	}
}

func newWB(t *testing.T) (*WriteBackDevice, *blockdev.MemDisk) {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWriteBack(disk, NewJournal(0))
	t.Cleanup(func() { _ = wb.Close() })
	return wb, disk
}

func TestWriteBackBasic(t *testing.T) {
	wb, disk := newWB(t)
	want := bytes.Repeat([]byte{3}, 1024)
	if err := wb.WriteAt(want, 4); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// Read-your-write through the decorator.
	got := make([]byte, 1024)
	if err := wb.ReadAt(got, 4); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read-your-write violated")
	}
	// And it actually landed on the backend.
	direct := make([]byte, 1024)
	if err := disk.ReadAt(direct, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, want) {
		t.Error("write did not reach backend")
	}
}

func TestWriteBackEarlyAck(t *testing.T) {
	// Backend with high write latency: WriteAt must return much faster
	// than the backend service time (the early acknowledgement).
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	slow := blockdev.NewLatencyDiskQueued(disk, blockdev.ServiceModel{PerRequest: 50 * time.Millisecond}, blockdev.ServiceModel{PerRequest: 50 * time.Millisecond}, 0)
	wb := NewWriteBack(slow, NewJournal(0))
	defer wb.Close()
	start := time.Now()
	if err := wb.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if el := time.Since(start); el > 25*time.Millisecond {
		t.Errorf("WriteAt took %v, want early return well under 50ms", el)
	}
	if err := wb.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	wb.mu.Lock()
	items := wb.items
	wb.mu.Unlock()
	if items != 0 {
		t.Errorf("%d applies pending after Flush", items)
	}
}

func TestWriteBackOrderPreserved(t *testing.T) {
	wb, disk := newWB(t)
	// Issue many overlapping writes; the last value must win.
	for i := 0; i < 50; i++ {
		if err := wb.WriteAt(bytes.Repeat([]byte{byte(i)}, 512), 7); err != nil {
			t.Fatalf("WriteAt #%d: %v", i, err)
		}
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := disk.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if got[0] != 49 {
		t.Errorf("final value = %d, want 49 (ack order preserved)", got[0])
	}
}

func TestWriteBackReadDoesNotWaitOnDisjointWrites(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	slow := blockdev.NewLatencyDiskQueued(disk, blockdev.ServiceModel{PerRequest: 40 * time.Millisecond}, blockdev.ServiceModel{PerRequest: 40 * time.Millisecond}, 0)
	wb := NewWriteBack(slow, NewJournal(0))
	defer wb.Close()
	if err := wb.WriteAt(make([]byte, 512), 100); err != nil {
		t.Fatal(err)
	}
	// Reading a disjoint range must not wait for the queued write, only
	// pay its own backend read latency (~40ms), not 80ms.
	start := time.Now()
	if err := wb.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 65*time.Millisecond {
		t.Errorf("disjoint read took %v, should not serialize behind the write", el)
	}
}

// TestWriteBackRefusesWritesPastJournalKill: a crash-kill freezes the
// journals before it reaches the write-back devices. In between, a write
// must fail — an idle device used to take the journal's refusal for a full
// buffer, write through to the backend and acknowledge, and the successor's
// replay of the frozen journal then put older data over that write.
func TestWriteBackRefusesWritesPastJournalKill(t *testing.T) {
	mem, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewCountingDisk(mem)
	j := NewJournal(0)
	wb := NewWriteBack(disk, j)
	defer wb.Kill()
	if err := wb.WriteAt(bytes.Repeat([]byte{1}, 512), 3); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil { // idle: nothing in flight, nothing pending
		t.Fatal(err)
	}
	before := disk.Writes()
	j.Kill()
	if err := wb.WriteAt(bytes.Repeat([]byte{2}, 512), 3); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("write after the journal was killed: err = %v, want ErrJournalClosed", err)
	}
	if n := disk.Writes() - before; n != 0 {
		t.Errorf("%d write(s) reached the backend after the journal was killed", n)
	}
}

func TestWriteBackJournalFullFallsBackToSync(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWriteBack(disk, NewJournal(512)) // room for one block
	defer wb.Close()
	// Many rapid writes: some will overflow the journal and go sync; all
	// must land.
	for i := 0; i < 10; i++ {
		if err := wb.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, 512), uint64(i)); err != nil {
			t.Fatalf("WriteAt #%d: %v", i, err)
		}
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got := make([]byte, 512)
		if err := disk.ReadAt(got, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Errorf("block %d = %d, want %d", i, got[0], i+1)
		}
	}
}

func TestWriteBackBackendFailureSticks(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	fd := blockdev.NewFaultDisk(disk)
	j := NewJournal(0)
	wb := NewWriteBack(fd, j)
	defer wb.Close()
	wantErr := errors.New("replica down")
	fd.Trip(wantErr)
	if err := wb.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("first WriteAt should early-ack: %v", err)
	}
	testutil.WaitFor(t, time.Second, "the backend failure to be recorded", func() bool { return failures(j) > 0 })
	// Subsequent writes refuse early-ack with the sticky error.
	if err := wb.WriteAt(make([]byte, 512), 1); !errors.Is(err, wantErr) {
		t.Errorf("post-failure WriteAt err = %v, want %v", err, wantErr)
	}
	if err := wb.Flush(); !errors.Is(err, wantErr) {
		t.Errorf("Flush err = %v, want %v", err, wantErr)
	}
}

func TestWriteBackRejectsBadLength(t *testing.T) {
	wb, _ := newWB(t)
	if err := wb.WriteAt(make([]byte, 100), 0); !errors.Is(err, blockdev.ErrBadLength) {
		t.Errorf("WriteAt err = %v, want ErrBadLength", err)
	}
	if err := wb.ReadAt(nil, 0); !errors.Is(err, blockdev.ErrBadLength) {
		t.Errorf("ReadAt err = %v, want ErrBadLength", err)
	}
}

func TestWriteBackConcurrentMixedLoad(t *testing.T) {
	wb, _ := newWB(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 16)
			want := bytes.Repeat([]byte{byte(g + 1)}, 512)
			for i := 0; i < 30; i++ {
				if err := wb.WriteAt(want, base); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
				got := make([]byte, 512)
				if err := wb.ReadAt(got, base); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("g=%d read stale data", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	// Passive cost grows per packet.
	small := c.interceptCost(Passive, 4*1024)
	large := c.interceptCost(Passive, 256*1024)
	if large <= small {
		t.Errorf("passive cost: 256K (%v) should exceed 4K (%v)", large, small)
	}
	if got, want := large, 32*c.PassivePerPacket; got != want {
		t.Errorf("passive 256K = %v, want %v (32 packets)", got, want)
	}
	// Active batches are cheaper.
	if a := c.interceptCost(Active, 256*1024); a >= large {
		t.Errorf("active 256K (%v) should be cheaper than passive (%v)", a, large)
	}
	// Zero-byte ops still cost one unit.
	if c.interceptCost(Passive, 0) == 0 {
		t.Error("zero-length op should cost one packet")
	}
	if c.interceptCost(Mode(99), 100) != 0 {
		t.Error("unknown mode should cost nothing")
	}
}

// relayTestbed builds VM -- relay -- target over net.Pipe links.
func relayTestbed(t testing.TB, mode Mode, services ...ServiceFactory) *initiator.Session {
	t.Helper()
	// Real target.
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
			go func() {
				// Serve exactly this backend connection.
				ln := newOneShotListener(s)
				tsrv.Serve(ln)
			}()
			return c, nil
		},
		NextHop:  netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Services: services,
		Cost:     CostModel{}, // zero costs for functional tests
	})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	// Hand the cost model zero values but keep mode semantics.
	relay.cfg.Cost = CostModel{MTU: 8192, BatchSize: 65536}

	front, back := net.Pipe()
	go relay.Serve(newOneShotListener(back))
	t.Cleanup(func() {
		relay.Close()
		tsrv.Close()
	})

	sess, err := initiator.Login(front, initiator.Config{
		InitiatorIQN: "iqn.vm1", TargetIQN: iqn,
	})
	if err != nil {
		t.Fatalf("Login through relay: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	return sess
}

// oneShotListener yields a single connection then blocks until closed.
type oneShotListener struct {
	c    net.Conn
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newOneShotListener(c net.Conn) *oneShotListener {
	l := &oneShotListener{c: c, ch: make(chan net.Conn, 1), done: make(chan struct{})}
	l.ch <- c
	return l
}

func (l *oneShotListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, errors.New("closed")
	}
}

func (l *oneShotListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *oneShotListener) Addr() net.Addr { return netsim.Addr{} }

func TestRelayPassiveEndToEnd(t *testing.T) {
	sess := relayTestbed(t, Passive)
	want := bytes.Repeat([]byte{0xAA}, 4096)
	if err := sess.Write(8, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(8, 8, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("passive relay corrupted data")
	}
}

func TestRelayActiveEndToEnd(t *testing.T) {
	sess := relayTestbed(t, Active)
	want := bytes.Repeat([]byte{0xBB}, 8192)
	if err := sess.Write(0, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Read-your-write through the journal path.
	got, err := sess.Read(0, 16, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("active relay read-your-write violated")
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// xorService is a trivial involutive cipher service for testing chaining.
func xorService(key byte) ServiceFactory {
	return func(backend blockdev.Device) (blockdev.Device, error) {
		return &xorDevice{dev: backend, key: key}, nil
	}
}

type xorDevice struct {
	dev blockdev.Device
	key byte
}

func (d *xorDevice) BlockSize() int { return d.dev.BlockSize() }
func (d *xorDevice) Blocks() uint64 { return d.dev.Blocks() }

func (d *xorDevice) ReadAt(p []byte, lba uint64) error {
	if err := d.dev.ReadAt(p, lba); err != nil {
		return err
	}
	for i := range p {
		p[i] ^= d.key
	}
	return nil
}

func (d *xorDevice) WriteAt(p []byte, lba uint64) error {
	enc := make([]byte, len(p))
	for i := range p {
		enc[i] = p[i] ^ d.key
	}
	return d.dev.WriteAt(enc, lba)
}

func (d *xorDevice) Flush() error { return d.dev.Flush() }
func (d *xorDevice) Close() error { return d.dev.Close() }

func TestRelayServiceChain(t *testing.T) {
	sess := relayTestbed(t, Active, xorService(0x5A), xorService(0x33))
	want := bytes.Repeat([]byte{0x11}, 1024)
	if err := sess.Write(4, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(4, 2, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("service chain is not transparent end-to-end")
	}
}

func TestRelayInvalidConfig(t *testing.T) {
	if _, err := NewRelay(Config{Mode: Mode(9), Endpoint: &netsim.Endpoint{}}); err == nil {
		t.Error("invalid mode: want error")
	}
	if _, err := NewRelay(Config{Mode: Active}); err == nil {
		t.Error("missing dialer: want error")
	}
}

func TestModeString(t *testing.T) {
	if Passive.String() != "passive-relay" || Active.String() != "active-relay" {
		t.Error("mode strings wrong")
	}
	if Mode(0).String() != "relay(?)" {
		t.Error("unknown mode string wrong")
	}
}

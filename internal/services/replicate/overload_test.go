package replicate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/xerr"
)

// TestBreakerTripHalfOpenClose walks the full breaker cycle against a
// failing backend: consecutive apply failures exhaust the inline retry
// budget and open the breaker, half-open probes fail while the fault holds,
// and a successful probe + resync closes it again.
func TestBreakerTripHalfOpenClose(t *testing.T) {
	fb := &faultBackend{Backend: cas.NewMemBackend(testSlots)}
	flaky, err := cas.Open(fb, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(memStores(t, 2), NamedStore{Name: "flaky", Store: flaky})
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b, err := New(Config{
		Name: "brk", Quorum: 2, ChunkSize: testChunk, WALDir: t.TempDir(),
		HedgeDelay: 200 * time.Millisecond, ProbeInterval: time.Hour, // probe manually
		BreakerThreshold: 3, Obs: reg,
	}, disk, stores)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	victim := b.targets[2]
	if victim.BreakerState() != BreakerClosed {
		t.Fatalf("initial breaker state = %d", victim.BreakerState())
	}

	fb.setFail(errors.New("injected"))
	rng := rand.New(rand.NewSource(3))
	writeBlocks(t, b, rng, 5)
	testutil.WaitFor(t, 2*time.Second, "breaker to open", func() bool {
		return victim.BreakerState() == BreakerOpen
	})
	if !b.BreakerOpen() {
		t.Fatal("BreakerOpen() = false with an open breaker")
	}

	// Half-open probe against the still-failing backend must not readmit.
	if n := b.Probe(); n != 0 {
		t.Fatalf("probe readmitted %d against a failing backend", n)
	}
	if victim.BreakerState() != BreakerOpen {
		t.Fatalf("breaker state after failed probe = %d, want open", victim.BreakerState())
	}
	if reg.Counter("replicate.brk.flaky.breaker_probes").Value() == 0 {
		t.Fatal("half-open probe not counted")
	}

	// Heal: the next probe closes the breaker via resync.
	fb.setFail(nil)
	if n := b.Probe(); n != 1 {
		t.Fatalf("probe after heal readmitted %d, want 1", n)
	}
	if victim.BreakerState() != BreakerClosed {
		t.Fatalf("breaker state after heal = %d, want closed", victim.BreakerState())
	}
	writeBlocks(t, b, rng, 5)
	waitDrained(t, b)
	want := primaryHash(t, b)
	got, err := flaky.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("backend diverged after breaker cycle")
	}
}

// TestWatermarkBackpressure pins the admission contract: pending depth at
// the high watermark refuses writes with typed ErrBusy, and the latch only
// releases once the queue drains to the low watermark.
func TestWatermarkBackpressure(t *testing.T) {
	// Both backends fail so nothing commits: every write stays pending.
	fb1 := &faultBackend{Backend: cas.NewMemBackend(testSlots)}
	fb2 := &faultBackend{Backend: cas.NewMemBackend(testSlots)}
	s1, err := cas.Open(fb1, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cas.Open(fb2, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	fb1.setFail(errors.New("down"))
	fb2.setFail(errors.New("down"))
	reg := obs.NewRegistry()
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		Name: "bp", Quorum: 2, ChunkSize: testChunk, WALDir: t.TempDir(),
		HedgeDelay: time.Millisecond, ProbeInterval: time.Hour,
		QueueHighWatermark: 8, QueueLowWatermark: 2, Obs: reg,
	}, disk, []NamedStore{{Name: "a", Store: s1}, {Name: "b", Store: s2}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	p := bytes.Repeat([]byte{1}, testBS)
	var busy error
	for i := 0; i < 64 && busy == nil; i++ {
		if err := b.WriteAt(p, uint64(i%testBlocks)); err != nil {
			busy = err
		}
	}
	if busy == nil {
		t.Fatal("watermark never engaged")
	}
	if !errors.Is(busy, ErrBusy) {
		t.Fatalf("overloaded write: got %v, want ErrBusy", busy)
	}
	if xerr.Classify(busy) != xerr.Overload {
		t.Fatalf("ErrBusy classed %v, want Overload", xerr.Classify(busy))
	}
	if !xerr.Retryable(busy) {
		t.Fatal("overload must be retryable")
	}
	if reg.Gauge("backpressure.bp.engaged").Value() != 1 {
		t.Fatal("backpressure gauge not engaged")
	}
	if reg.Counter("backpressure.bp.rejects").Value() == 0 {
		t.Fatal("reject counter did not move")
	}
	// Still above the low watermark: admission stays shut even though the
	// depth is below the high one (hysteresis).
	if err := b.WriteAt(p, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("write while latched: %v, want ErrBusy", err)
	}

	// Heal the backends; pending drains via retro-ack and the latch opens.
	fb1.setFail(nil)
	fb2.setFail(nil)
	b.Probe()
	waitDrained(t, b)
	if err := b.WriteAt(p, 0); err != nil {
		t.Fatalf("write after drain: %v", err)
	}
	if reg.Gauge("backpressure.bp.engaged").Value() != 0 {
		t.Fatal("backpressure gauge still engaged after drain")
	}
}

// TestDegradedQuorumPolicy: with DegradedQuorum set, writes proceed on the
// survivors when a breaker is open, and fast-fail typed once the healthy
// count drops below the floor.
func TestDegradedQuorumPolicy(t *testing.T) {
	fbs := make([]*faultBackend, 3)
	var stores []NamedStore
	for i := range fbs {
		fbs[i] = &faultBackend{Backend: cas.NewMemBackend(testSlots)}
		s, err := cas.Open(fbs[i], testChunk, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, NamedStore{Name: fmt.Sprintf("be%d", i), Store: s})
	}
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b, err := New(Config{
		Name: "dq", Quorum: 3, DegradedQuorum: 2, ChunkSize: testChunk,
		WALDir: t.TempDir(), HedgeDelay: 100 * time.Millisecond,
		ProbeInterval: time.Hour, BreakerThreshold: 1, Obs: reg,
	}, disk, stores)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	p := bytes.Repeat([]byte{7}, testBS)
	if err := b.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, b)

	// One backend down: 2 survivors ≥ floor 2, so writes proceed at the
	// reduced quorum without waiting out the hedge.
	fbs[2].setFail(errors.New("down"))
	writeBlocks(t, b, rand.New(rand.NewSource(9)), 3)
	testutil.WaitFor(t, 2*time.Second, "third backend eviction", func() bool {
		return !b.targets[2].Healthy()
	})
	start := time.Now()
	if err := b.WriteAt(p, 8); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	// The write must return on the survivors' acks (reduced quorum), not by
	// waiting out the 100ms hedge as a quorum miss.
	if elapsed := time.Since(start); elapsed > 90*time.Millisecond {
		t.Fatalf("degraded write took %v — it hedged instead of committing at the reduced quorum", elapsed)
	}
	if reg.Counter("replicate.dq.degraded_writes").Value() == 0 {
		t.Fatal("degraded-write counter did not move")
	}

	// Two backends down: 1 survivor < floor 2 → typed fast-fail, and the
	// refusal must arrive without journaling anything new. The trigger
	// writes may themselves fast-fail once the eviction lands.
	fbs[1].setFail(errors.New("down"))
	for i := 0; i < 5 && b.targets[1].Healthy(); i++ {
		if err := b.WriteAt(p, uint64(i)); err != nil && !errors.Is(err, ErrDegraded) {
			t.Fatalf("trigger write %d: %v", i, err)
		}
	}
	testutil.WaitFor(t, 2*time.Second, "second backend eviction", func() bool {
		return !b.targets[1].Healthy()
	})
	pendingBefore := b.log.Pending()
	err = b.WriteAt(p, 16)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("below-floor write: got %v, want ErrDegraded", err)
	}
	if xerr.Classify(err) != xerr.Transient {
		t.Fatalf("ErrDegraded classed %v, want Transient", xerr.Classify(err))
	}
	if got := b.log.Pending(); got != pendingBefore {
		t.Fatalf("fast-fail journaled a record: pending %d -> %d", pendingBefore, got)
	}

	// Heal everything: probes close the breakers and full-quorum writes
	// resume.
	fbs[1].setFail(nil)
	fbs[2].setFail(nil)
	testutil.WaitFor(t, 2*time.Second, "breakers to close", func() bool { return b.Probe() >= 0 && !b.BreakerOpen() })
	if err := b.WriteAt(p, 24); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	waitDrained(t, b)
	want := primaryHash(t, b)
	for _, ns := range stores {
		got, err := ns.Store.LogicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("backend %s diverged after degraded episode", ns.Name)
		}
	}
}

// blockingBackend wedges PutChunk until its gate releases — a backend that
// is up but not making progress.
type blockingBackend struct {
	cas.Backend
	gate chan struct{}
}

func (bb *blockingBackend) PutChunk(id cas.ID, data []byte) error {
	<-bb.gate
	return bb.Backend.PutChunk(id, data)
}

// TestQueueFullTripsBackendBreaker: a backend whose dispatch channel
// overflows is cut off with a typed overload eviction instead of blocking
// the write path.
func TestQueueFullTripsBackendBreaker(t *testing.T) {
	gate := make(chan struct{})
	bb := &blockingBackend{Backend: cas.NewMemBackend(testSlots), gate: gate}
	wedged, err := cas.Open(bb, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(memStores(t, 1), NamedStore{Name: "wedged", Store: wedged})
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		Name: "qf", Quorum: 1, ChunkSize: testChunk, WALDir: t.TempDir(),
		HedgeDelay: time.Millisecond, ProbeInterval: time.Hour, Obs: obs.NewRegistry(),
	}, disk, stores)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release() // unwedge the worker so Close can join it

	// The wedged worker parks on its first job; the writes behind it fill
	// the 256-slot channel, and the overflowing enqueue must evict rather
	// than block the healthy path.
	victim := b.targets[1]
	p := bytes.Repeat([]byte{3}, testBS)
	for i := 0; i < 300 && victim.Healthy(); i++ {
		if err := b.WriteAt(p, uint64(i%testBlocks)); err != nil {
			t.Fatalf("write %d with one wedged backend: %v", i, err)
		}
	}
	testutil.WaitFor(t, 2*time.Second, "wedged backend eviction", func() bool { return !victim.Healthy() })
	b.mu.Lock()
	lastErr := victim.lastErr
	b.mu.Unlock()
	if xerr.Classify(lastErr) != xerr.Overload {
		t.Fatalf("queue-full eviction classed %v (%v), want Overload", xerr.Classify(lastErr), lastErr)
	}

	// The eviction settled every job the wedged backend owed, so the
	// journal commits on the healthy backend's acks instead of pinning a
	// queue's worth of records behind a worker that may never return.
	testutil.WaitFor(t, 2*time.Second, "journal to commit past the wedged backend", func() bool { return b.log.Pending() == 0 })
	// It stays out while its worker is inside a pre-eviction job, whose
	// late apply would otherwise land over the resync.
	if n := b.Probe(); n != 0 {
		t.Fatalf("probe readmitted %d backends with a pre-eviction job still in flight", n)
	}
	release()
	testutil.WaitFor(t, 2*time.Second, "wedged backend readmission", func() bool { b.Probe(); return victim.Healthy() })
	waitDrained(t, b)
	requireConverged(t, b, stores)
}

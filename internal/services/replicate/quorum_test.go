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

// faultStores returns n in-memory stores behind faultBackends, so a test
// can fail, gate and heal each backend.
func faultStores(t *testing.T, n int) ([]*faultBackend, []NamedStore) {
	t.Helper()
	fbs := make([]*faultBackend, n)
	stores := make([]NamedStore, n)
	for i := range fbs {
		fbs[i] = &faultBackend{Backend: cas.NewMemBackend(testSlots)}
		s, err := cas.Open(fbs[i], testChunk, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = NamedStore{Name: fmt.Sprintf("backend%d", i), Store: s}
	}
	return fbs, stores
}

// requireNoQuorum fails unless err is the box's retryable quorum refusal.
func requireNoQuorum(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
	if c := xerr.Classify(err); c != xerr.Overload {
		t.Fatalf("ErrNoQuorum classed %v, want Overload", c)
	}
	if !xerr.Retryable(err) {
		t.Fatal("ErrNoQuorum must be retryable")
	}
}

// readmit probes until every backend is back. A backend's worker counts its
// last job done just after evicting it, so the first Probe can skip it.
func readmit(t *testing.T, b *Box) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, "every backend readmitted", func() bool {
		b.Probe()
		return !b.BreakerOpen()
	})
}

// TestWriteRefusedShortOfQuorum: a write whose backends fail it below
// quorum is refused with ErrNoQuorum and stays journaled; with fewer than
// quorum backends alive the next write is refused before it reaches the
// journal or the primary. After heal and Probe the journal drains and every
// backend holds the primary's content, the refused write included.
func TestWriteRefusedShortOfQuorum(t *testing.T) {
	fbs, stores := faultStores(t, 3)
	mem, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	primary := blockdev.NewCountingDisk(mem)
	reg := obs.NewRegistry()
	b, err := New(Config{Name: "nq", Quorum: 2, WALDir: t.TempDir(), ProbeInterval: time.Hour, Obs: reg}, primary, stores)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rng := rand.New(rand.NewSource(9))
	writeBlocks(t, b, rng, 5)
	waitDrained(t, b)

	fbs[1].setFail(errors.New("down"))
	fbs[2].setFail(errors.New("down"))
	p := make([]byte, testChunk)
	rng.Read(p)
	requireNoQuorum(t, b.WriteAt(p, 8))
	if n := b.log.Pending(); n != 1 {
		t.Fatalf("journal holds %d uncommitted records after a refusal past the append, want 1", n)
	}

	writes, pending := primary.Writes(), b.log.Pending()
	requireNoQuorum(t, b.WriteAt(p, 16))
	if primary.Writes() != writes || b.log.Pending() != pending {
		t.Fatal("a write refused with one of three backends alive reached the primary or the journal")
	}
	if n := reg.Counter("replicate.nq.quorum_misses").Value(); n != 2 {
		t.Fatalf("quorum_misses = %d after two refusals", n)
	}

	fbs[1].setFail(nil)
	fbs[2].setFail(nil)
	readmit(t, b)
	waitDrained(t, b)
	if n := b.log.Pending(); n != 0 {
		t.Fatalf("journal holds %d records after heal", n)
	}
	requireConverged(t, b, stores)
	if err := b.WriteAt(p, 16); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

// TestWriteWaitsForQuorum: with one backend failed and one holding its
// apply, the write has one ack of two. It waits for the held backend, well
// past any short timeout, and returns nil once that backend applies it.
func TestWriteWaitsForQuorum(t *testing.T) {
	fbs, stores := faultStores(t, 3)
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()
	entered, gate := make(chan struct{}), make(chan struct{})
	fbs[0].setGate(entered, gate)
	fbs[1].setFail(errors.New("down"))

	p := bytes.Repeat([]byte{7}, testChunk)
	done := make(chan error, 1)
	go func() { done <- b.WriteAt(p, 0) }()
	<-entered
	testutil.WaitFor(t, 5*time.Second, "the failed backend's eviction", func() bool { return !b.targets[1].Healthy() })
	select {
	case err := <-done:
		t.Fatalf("write returned %v with one of two acks", err)
	case <-time.After(50 * time.Millisecond):
	}
	fbs[0].setGate(nil, nil)
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("write at quorum: %v", err)
	}
	id := cas.Sum(p)
	for _, i := range []int{0, 2} {
		if stores[i].Store.IDAt(0) != id {
			t.Fatalf("%s does not hold the write the box acknowledged", stores[i].Name)
		}
	}
}

// TestNilMeansQuorumApplied: writers race backends that fail and heal at
// random. Every nil return must find the write on at least Quorum backends;
// every other return must be the retryable refusal.
func TestNilMeansQuorumApplied(t *testing.T) {
	const writers, perWriter, quorum = 4, 100, 2
	fbs, stores := faultStores(t, 3)
	b := newBox(t, t.TempDir(), stores, quorum)
	defer b.Close()

	stop := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(200+rng.Intn(800)) * time.Microsecond):
			}
			fb := fbs[rng.Intn(len(fbs))]
			if rng.Intn(2) == 0 {
				fb.setFail(errors.New("flap"))
			} else {
				fb.setFail(nil)
			}
		}
	}()

	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		acked, miss int
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			p := make([]byte, testChunk)
			for i := 0; i < perWriter; i++ {
				slot := uint64(w + writers*rng.Intn(testSlots/writers)) // slots are the writer's own
				rng.Read(p)
				err := b.WriteAt(p, slot*testChunk/testBS)
				if err != nil {
					if !errors.Is(err, ErrNoQuorum) || !xerr.Retryable(err) {
						t.Errorf("writer %d: %v, want nil or ErrNoQuorum", w, err)
						return
					}
					mu.Lock()
					miss++
					mu.Unlock()
					continue
				}
				id, holders := cas.Sum(p), 0
				for _, ns := range stores {
					if ns.Store.IDAt(slot) == id {
						holders++
					}
				}
				if holders < quorum {
					t.Errorf("writer %d: nil return with the write on %d backends, quorum %d", w, holders, quorum)
					return
				}
				mu.Lock()
				acked++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-chaosDone
	t.Logf("%d writes acknowledged, %d refused", acked, miss)
	if acked == 0 {
		t.Fatal("no write was acknowledged")
	}

	for _, fb := range fbs {
		fb.setFail(nil)
	}
	readmit(t, b)
	waitDrained(t, b)
	requireConverged(t, b, stores)
}

// TestJobsBoundedWithoutAdmissionQueue checks the memory bound that replaced
// the dispatch watermark: with one backend wedged, the uncommitted jobs
// never exceed its queue plus its in-flight apply plus one per writer,
// because the overflowing enqueue evicts it and settles what it owed.
func TestJobsBoundedWithoutAdmissionQueue(t *testing.T) {
	const writers, perWriter = 4, 150
	gate := make(chan struct{})
	bb := &blockingBackend{Backend: cas.NewMemBackend(testSlots), gate: gate}
	wedged, err := cas.Open(bb, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(memStores(t, 2), NamedStore{Name: "wedged", Store: wedged})
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	bound := cap(b.targets[2].queue) + 1 + writers
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		most int
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := bytes.Repeat([]byte{byte(w)}, testBS)
			for i := 0; i < perWriter; i++ {
				if err := b.WriteAt(p, uint64(i%testBlocks)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				b.mu.Lock()
				n := len(b.jobs)
				b.mu.Unlock()
				mu.Lock()
				most = max(most, n)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	t.Logf("at most %d uncommitted jobs over %d writes (bound %d)", most, writers*perWriter, bound)
	if most > bound {
		t.Fatalf("%d uncommitted jobs, bound %d", most, bound)
	}
	if b.targets[2].Healthy() {
		t.Fatal("the wedged backend was never evicted")
	}
	release()
	readmit(t, b)
	waitDrained(t, b)
	requireConverged(t, b, stores)
}

// TestRefusedRecordCommitsBeforeNextAdmission: a refused write's record
// stays in the journal, but the box admits no later write until that record
// has a quorum and commits, so a replay cannot put the refused write over a
// later acknowledged one. All three backends fail the refused write; a box
// killed after the next acknowledged write to the same blocks must replay
// to that write's content.
func TestRefusedRecordCommitsBeforeNextAdmission(t *testing.T) {
	fbs, stores := faultStores(t, 3)
	dir := t.TempDir()
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Name: "rc", Quorum: 2, WALDir: dir, ProbeInterval: time.Hour, Obs: obs.NewRegistry()}, disk, stores)
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range fbs {
		fb.setFail(errors.New("down"))
	}
	refused, acked := bytes.Repeat([]byte{1}, testChunk), bytes.Repeat([]byte{2}, testChunk)
	requireNoQuorum(t, b.WriteAt(refused, 0))

	// One backend back: one of three alive, still short of quorum, and the
	// refused record one ack short of committing.
	fbs[0].setFail(nil)
	testutil.WaitFor(t, 5*time.Second, "the first backend readmitted", func() bool { b.Probe(); return b.targets[0].Healthy() })
	requireNoQuorum(t, b.WriteAt(acked, 0))
	if n := b.log.Pending(); n != 1 {
		t.Fatalf("journal holds %d uncommitted records with the refused write one ack short, want 1", n)
	}
	// The second readmission makes the quorum: the refused record commits
	// in the same step, before any write can be admitted.
	fbs[1].setFail(nil)
	testutil.WaitFor(t, 5*time.Second, "the second backend readmitted", func() bool { b.Probe(); return b.targets[1].Healthy() })
	if n := b.log.Pending(); n != 0 {
		t.Fatalf("quorum is back but %d records are uncommitted", n)
	}
	if err := b.WriteAt(acked, 0); err != nil {
		t.Fatal(err)
	}
	b.Kill()

	fbs[2].setFail(nil)
	b2 := newBoxOn(t, dir, disk, stores, 2)
	defer b2.Close()
	got := make([]byte, testChunk)
	if err := b2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, acked) {
		t.Fatal("replay put a refused write over a later acknowledged one")
	}
	// The third backend was evicted at the kill, and the successor does
	// not know it (backend health is not persisted, ROADMAP 4): only the
	// two that were alive must hold the primary's content.
	waitDrained(t, b2)
	requireConverged(t, b2, stores[:2])
}

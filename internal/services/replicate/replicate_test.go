package replicate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/testutil"
)

const (
	testBS     = 512
	testBlocks = 256 // 128 KiB primary
	testChunk  = 4096
	testSlots  = (testBlocks*testBS + testChunk - 1) / testChunk
)

// faultBackend wraps a cas backend with a toggleable write fault, the
// injection point for eviction tests.
type faultBackend struct {
	cas.Backend
	mu      sync.Mutex
	fail    error
	entered chan struct{} // closed by the first gated write
	gate    chan struct{} // while non-nil, writes block until it closes
}

func (f *faultBackend) setFail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = err
}

// setGate makes the backend's next writes signal entered and block until
// gate closes.
func (f *faultBackend) setGate(entered, gate chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entered, f.gate = entered, gate
}

// check is the fault point of every write: a gated write announces itself
// once and blocks, then the injected error, if any, is returned.
func (f *faultBackend) check() error {
	f.mu.Lock()
	entered, gate := f.entered, f.gate
	f.entered = nil
	f.mu.Unlock()
	if entered != nil {
		close(entered)
	}
	if gate != nil {
		<-gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fail
}

func (f *faultBackend) PutChunk(slot uint64, id cas.ID, data []byte) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Backend.PutChunk(slot, id, data)
}

func (f *faultBackend) SetMapping(slot uint64, id cas.ID) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Backend.SetMapping(slot, id)
}

func memStores(t *testing.T, n int) []NamedStore {
	t.Helper()
	out := make([]NamedStore, n)
	for i := range out {
		s, err := cas.Open(cas.NewMemBackend(testSlots), testChunk, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = NamedStore{Name: fmt.Sprintf("backend%d", i), Store: s}
	}
	return out
}

func newBox(t *testing.T, dir string, stores []NamedStore, quorum int) *Box {
	t.Helper()
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	return newBoxOn(t, dir, disk, stores, quorum)
}

func newBoxOn(t *testing.T, dir string, primary blockdev.Device, stores []NamedStore, quorum int) *Box {
	t.Helper()
	b, err := New(Config{
		Name:          "t0",
		Quorum:        quorum,
		WALDir:        dir,
		HedgeDelay:    200 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		Obs:           obs.NewRegistry(),
	}, primary, stores)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

// waitDrained waits until every journaled write is quorum-committed AND
// every backend (not just a quorum) has applied its queue.
func waitDrained(t *testing.T, b *Box) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, "box to drain", b.Drained)
}

// primaryHash computes the primary's logical content hash the same way a
// backend's LogicalHash does (chunk-sized frames, tail zero-padded).
func primaryHash(t *testing.T, b *Box) cas.ID {
	t.Helper()
	s, err := cas.Open(cas.NewMemBackend(testSlots), testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < testSlots; slot++ {
		data, err := b.snapshotChunk(slot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(slot, data); err != nil {
			t.Fatal(err)
		}
	}
	h, err := s.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func writeBlocks(t *testing.T, b *Box, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := make([]byte, testBS*(1+rng.Intn(4)))
		rng.Read(p)
		lba := uint64(rng.Intn(testBlocks - len(p)/testBS))
		if err := b.WriteAt(p, lba); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

func TestFanOutConverges(t *testing.T) {
	stores := memStores(t, 3)
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()
	rng := rand.New(rand.NewSource(1))
	writeBlocks(t, b, rng, 50)
	waitDrained(t, b)
	want := primaryHash(t, b)
	for _, ns := range stores {
		got, err := ns.Store.LogicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("backend %s diverged from primary", ns.Name)
		}
	}
	if p := b.log.Pending(); p != 0 {
		t.Fatalf("journal still holds %d uncommitted records", p)
	}
}

func TestReadBackAndGeometry(t *testing.T) {
	stores := memStores(t, 2)
	b := newBox(t, t.TempDir(), stores, 1)
	defer b.Close()
	if b.BlockSize() != testBS || b.Blocks() != testBlocks {
		t.Fatalf("geometry = %d/%d", b.BlockSize(), b.Blocks())
	}
	p := bytes.Repeat([]byte{0xAB}, testBS)
	if err := b.WriteAt(p, 7); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testBS)
	if err := b.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("read-back mismatch")
	}
	if err := b.WriteAt(p[:100], 0); !errors.Is(err, blockdev.ErrBadLength) {
		t.Fatalf("short write err = %v", err)
	}
	if err := b.WriteAt(p, testBlocks); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestDedupAcrossBackends(t *testing.T) {
	stores := memStores(t, 2)
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()
	chunk := bytes.Repeat([]byte{0x5A}, testChunk)
	// The same content at 4 different chunk-aligned offsets: one stored
	// chunk, three dedup hits per backend.
	for i := 0; i < 4; i++ {
		if err := b.WriteAt(chunk, uint64(i*testChunk/testBS)); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, b)
	for _, ns := range stores {
		st := ns.Store.Stats()
		if st.LiveChunks != 1 {
			t.Fatalf("%s live chunks = %d, want 1", ns.Name, st.LiveChunks)
		}
		if st.DedupHits < 3 {
			t.Fatalf("%s dedup hits = %d, want ≥ 3", ns.Name, st.DedupHits)
		}
	}
}

func TestEvictionAndResyncReadmits(t *testing.T) {
	fb := &faultBackend{Backend: cas.NewMemBackend(testSlots)}
	flaky, err := cas.Open(fb, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(memStores(t, 2), NamedStore{Name: "flaky", Store: flaky})
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()

	rng := rand.New(rand.NewSource(2))
	writeBlocks(t, b, rng, 10)
	waitDrained(t, b)

	fb.setFail(errors.New("injected"))
	writeBlocks(t, b, rng, 10)
	waitDrained(t, b)
	testutil.WaitFor(t, 2*time.Second, "flaky backend eviction", func() bool { return !b.targets[2].Healthy() })

	// Heal; the prober must resync and readmit.
	fb.setFail(nil)
	testutil.WaitFor(t, 2*time.Second, "flaky backend readmission", b.targets[2].Healthy)
	writeBlocks(t, b, rng, 5)
	waitDrained(t, b)
	want := primaryHash(t, b)
	got, err := flaky.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("readmitted backend diverged from primary")
	}
}

func TestHedgedReturnBelowQuorum(t *testing.T) {
	// Both backends fail: writes can't reach quorum 2 but must still
	// return within the hedge delay, leaving the journal record pending.
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
	stores := []NamedStore{{Name: "a", Store: s1}, {Name: "b", Store: s2}}
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()

	p := bytes.Repeat([]byte{1}, testBS)
	start := time.Now()
	if err := b.WriteAt(p, 0); err != nil {
		t.Fatalf("hedged write failed hard: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hedged write blocked past the hedge delay")
	}
	if waiting(b) == 0 {
		t.Fatal("below-quorum write should stay pending")
	}
	// Heal both: the prober resyncs, retro-acks, and the pending record
	// commits.
	fb1.setFail(nil)
	fb2.setFail(nil)
	waitDrained(t, b)
	if p := b.log.Pending(); p != 0 {
		t.Fatalf("journal still holds %d records after heal", p)
	}
}

// TestCrashKillRecoveryConverges is the acceptance crash test: the box is
// killed mid-dispatch at seed-chosen write indices and stages, rebuilt
// over the same journal and backends, and the journal replay must drive
// every backend to content-hash equality with a no-crash baseline.
func TestCrashKillRecoveryConverges(t *testing.T) {
	const writes = 40
	// Baseline: the same seeded workload, no crash.
	baseStores := memStores(t, 3)
	baseBox := newBox(t, t.TempDir(), baseStores, 2)
	writeBlocks(t, baseBox, rand.New(rand.NewSource(77)), writes)
	waitDrained(t, baseBox)
	baseline, err := baseStores[0].Store.LogicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := baseBox.Close(); err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{1, 42, 1337} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			killIdx := faults.CrashPoint(seed, 1, writes-1)
			stage := StageAppended
			if seed%2 == 0 {
				stage = StagePrimary
			}
			dir := t.TempDir()
			disk, err := blockdev.NewMemDisk(testBS, testBlocks)
			if err != nil {
				t.Fatal(err)
			}
			stores := memStores(t, 3)
			box := newBoxOn(t, dir, disk, stores, 2)
			var appended uint64
			box.killAfter = func(seq uint64, st string) bool {
				if st != stage {
					return false
				}
				appended++
				return appended == killIdx
			}

			rng := rand.New(rand.NewSource(77))
			killed := -1
			for i := 0; i < writes; i++ {
				p := make([]byte, testBS*(1+rng.Intn(4)))
				rng.Read(p)
				lba := uint64(rng.Intn(testBlocks - len(p)/testBS))
				err := box.WriteAt(p, lba)
				if errors.Is(err, ErrKilled) {
					killed = i
					break
				}
				if err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if killed < 0 {
				t.Fatalf("kill hook never fired (killIdx=%d stage=%s)", killIdx, stage)
			}

			// Recover: same journal dir, same primary device, same stores.
			box2 := newBoxOn(t, dir, disk, stores, 2)
			if box2.Replayed() == 0 {
				t.Fatal("recovery replayed nothing despite a mid-dispatch kill")
			}
			// Resume the workload, re-issuing the killed write: replay
			// already applied it, and re-application is idempotent.
			rng = rand.New(rand.NewSource(77))
			for i := 0; i < writes; i++ {
				p := make([]byte, testBS*(1+rng.Intn(4)))
				rng.Read(p)
				lba := uint64(rng.Intn(testBlocks - len(p)/testBS))
				if i < killed {
					continue // already applied pre-crash
				}
				if err := box2.WriteAt(p, lba); err != nil {
					t.Fatalf("resumed write %d: %v", i, err)
				}
			}
			waitDrained(t, box2)
			want := primaryHash(t, box2)
			if want != baseline {
				t.Fatal("recovered primary diverged from no-crash baseline")
			}
			for _, ns := range stores {
				got, err := ns.Store.LogicalHash()
				if err != nil {
					t.Fatal(err)
				}
				if got != baseline {
					t.Fatalf("backend %s diverged from no-crash baseline after recovery", ns.Name)
				}
			}
			if err := box2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKillThenIORefused(t *testing.T) {
	stores := memStores(t, 2)
	b := newBox(t, t.TempDir(), stores, 1)
	b.Kill()
	p := make([]byte, testBS)
	if err := b.WriteAt(p, 0); !errors.Is(err, ErrKilled) {
		t.Fatalf("write after kill = %v", err)
	}
	if err := b.ReadAt(p, 0); !errors.Is(err, ErrKilled) {
		t.Fatalf("read after kill = %v", err)
	}
	if !b.Killed() {
		t.Fatal("Killed() = false")
	}
	// Close after Kill is a no-op, not a double-free.
	if err := b.Close(); err != nil {
		t.Fatalf("close after kill: %v", err)
	}
}

// TestKillDuringResyncReturns: a kill that fires while the prober is about
// to resync an evicted backend must not deadlock. The resync takes the
// write lock, and Kill waits for the prober, so Kill must release the write
// lock before it waits.
func TestKillDuringResyncReturns(t *testing.T) {
	fb := &faultBackend{Backend: cas.NewMemBackend(testSlots)}
	flaky, err := cas.Open(fb, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(memStores(t, 1), NamedStore{Name: "flaky", Store: flaky})
	// No deferred Close: against a deadlocked Kill it would hang the test
	// instead of failing it.
	b := newBox(t, t.TempDir(), stores, 1)

	fb.setFail(errors.New("injected"))
	p := make([]byte, testChunk)
	rand.New(rand.NewSource(5)).Read(p)
	if err := b.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 2*time.Second, "flaky backend eviction", func() bool { return !b.targets[1].Healthy() })

	// Hold the prober's half-open probe in the backend, kill the box, then
	// let the probe pass so the prober goes on to resync.
	entered, gate := make(chan struct{}), make(chan struct{})
	fb.setGate(entered, gate)
	fb.setFail(nil)
	<-entered
	killed := make(chan struct{})
	go func() {
		b.Kill()
		close(killed)
	}()
	testutil.WaitFor(t, 2*time.Second, "box to freeze", b.Killed)
	fb.setGate(nil, nil)
	close(gate)
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("Kill deadlocked against the prober's resync")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close after kill: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	stores := memStores(t, 2)
	cases := []Config{
		{Name: "x", Quorum: 0, WALDir: t.TempDir()},
		{Name: "x", Quorum: 3, WALDir: t.TempDir()},
		{Name: "x", Quorum: 1},
	}
	for i, cfg := range cases {
		cfg.Obs = obs.NewRegistry()
		if _, err := New(cfg, disk, stores); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	// The box takes its chunk size from its stores: stores that disagree on
	// it are refused.
	odd, err := cas.Open(cas.NewMemBackend(testSlots), 2*testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(stores[:len(stores):len(stores)], NamedStore{Name: "odd", Store: odd})
	if _, err := New(Config{Name: "x", Quorum: 1, WALDir: t.TempDir(), Obs: obs.NewRegistry()}, disk, mixed); err == nil {
		t.Fatal("stores of two chunk sizes accepted")
	}
	// A chunk that is not a whole number of the primary's blocks is refused.
	const raggedSlots = (testBlocks*testBS + 999) / 1000
	var ragged []NamedStore
	for i := 0; i < 2; i++ {
		s, err := cas.Open(cas.NewMemBackend(raggedSlots), 1000, raggedSlots)
		if err != nil {
			t.Fatal(err)
		}
		ragged = append(ragged, NamedStore{Name: fmt.Sprintf("r%d", i), Store: s})
	}
	if _, err := New(Config{Name: "x", Quorum: 1, WALDir: t.TempDir(), Obs: obs.NewRegistry()}, disk, ragged); err == nil || !strings.Contains(err.Error(), "not a multiple of block size") {
		t.Fatalf("chunk size 1000 over %d-byte blocks: err = %v", testBS, err)
	}
}

func TestConcurrentWritersUnderRace(t *testing.T) {
	stores := memStores(t, 3)
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				p := make([]byte, testBS)
				rng.Read(p)
				if err := b.WriteAt(p, uint64(rng.Intn(testBlocks))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitDrained(t, b)
	want := primaryHash(t, b)
	for _, ns := range stores {
		got, err := ns.Store.LogicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("backend %s diverged under concurrency", ns.Name)
		}
	}
}

// waiting is the number of b's journaled writes still below quorum.
func waiting(b *Box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiting
}

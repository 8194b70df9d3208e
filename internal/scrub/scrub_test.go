package scrub

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/testutil"
)

const (
	testChunk = 1024
	testSlots = 32
)

// storeReplica adapts a bare cas.Store to the Replica interface for tests
// (production wiring uses replicate.Target, which satisfies it directly).
type storeReplica struct {
	name    string
	store   *cas.Store
	healthy bool
}

func (r *storeReplica) Name() string  { return r.name }
func (r *storeReplica) Healthy() bool { return r.healthy }

func (r *storeReplica) ReadChunk(slot uint64, dst []byte) error {
	return r.store.Read(slot, dst)
}

// read returns the replica's verified content at slot.
func (r *storeReplica) read(slot uint64) ([]byte, error) {
	buf := make([]byte, r.store.ChunkSize())
	if err := r.ReadChunk(slot, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (r *storeReplica) WriteChunk(slot uint64, data []byte) error {
	return r.store.Repair(slot, data)
}

// replicaSet builds n identical replicas filled with a seeded workload.
func replicaSet(t *testing.T, n int) []*storeReplica {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	content := make([][]byte, testSlots)
	for slot := range content {
		content[slot] = make([]byte, testChunk)
		rng.Read(content[slot])
	}
	out := make([]*storeReplica, n)
	for i := range out {
		s, err := cas.Open(cas.NewMemBackend(testSlots), testChunk, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		for slot, data := range content {
			if _, err := s.Write(uint64(slot), data); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = &storeReplica{name: fmt.Sprintf("r%d", i), store: s, healthy: true}
	}
	return out
}

func scrubber(reps []*storeReplica) *Scrubber {
	rs := make([]Replica, len(reps))
	for i, r := range reps {
		rs[i] = r
	}
	return New(Config{
		Name:      "t0",
		Replicas:  rs,
		Slots:     testSlots,
		ChunkSize: testChunk,
		Interval:  5 * time.Millisecond,
		Obs:       obs.NewRegistry(),
	})
}

func TestCleanPassFindsNothing(t *testing.T) {
	reps := replicaSet(t, 3)
	st, err := scrubber(reps).RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != testSlots || st.Mismatches != 0 || st.Repaired != 0 || st.Unrepairable != 0 {
		t.Fatalf("clean pass stats = %+v", st)
	}
}

// TestRepairsCorruptReplica is the acceptance scrub test: one backend's
// chunk is corrupted and the scrubber must restore it from the healthy
// majority.
func TestRepairsCorruptReplica(t *testing.T) {
	reps := replicaSet(t, 3)
	const slot = 5
	want, err := reps[0].read(slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := reps[2].store.Corrupt(slot); err != nil {
		t.Fatal(err)
	}
	if _, err := reps[2].read(slot); err == nil {
		t.Fatal("corruption not visible before scrub")
	}
	st, err := scrubber(reps).RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mismatches != 1 || st.Repaired != 1 || st.Unrepairable != 0 {
		t.Fatalf("pass stats = %+v", st)
	}
	got, err := reps[2].read(slot)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("repair restored wrong content")
	}
	// A second pass is clean.
	st, err = scrubber(reps).RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mismatches != 0 {
		t.Fatalf("post-repair pass stats = %+v", st)
	}
}

func TestRepairsDivergentReplica(t *testing.T) {
	reps := replicaSet(t, 3)
	const slot = 2
	want, err := reps[0].read(slot)
	if err != nil {
		t.Fatal(err)
	}
	// Divergence (a stale or phantom write), not corruption: the replica's
	// chunk is internally consistent but disagrees with the majority.
	stale := bytes.Repeat([]byte{0xEE}, testChunk)
	if err := reps[1].WriteChunk(slot, stale); err != nil {
		t.Fatal(err)
	}
	st, err := scrubber(reps).RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mismatches != 1 || st.Repaired != 1 {
		t.Fatalf("pass stats = %+v", st)
	}
	got, err := reps[1].read(slot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("divergent replica not restored to majority content")
	}
}

func TestNoMajorityIsUnrepairable(t *testing.T) {
	reps := replicaSet(t, 2)
	const slot = 0
	if err := reps[1].store.Corrupt(slot); err != nil {
		t.Fatal(err)
	}
	// 1 verified vote out of 2 healthy replicas is not a strict majority:
	// repair must refuse to guess.
	st, err := scrubber(reps).RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Unrepairable != 1 || st.Repaired != 0 {
		t.Fatalf("pass stats = %+v", st)
	}
	if _, err := reps[1].read(slot); err == nil {
		t.Fatal("unrepairable slot was silently rewritten")
	}
}

func TestUnhealthyReplicasSkipped(t *testing.T) {
	reps := replicaSet(t, 3)
	if err := reps[2].store.Corrupt(1); err != nil {
		t.Fatal(err)
	}
	reps[2].healthy = false
	st, err := scrubber(reps).RunPass()
	if err != nil {
		t.Fatal(err)
	}
	// The corrupt replica is out of the set: nothing to find or repair.
	if st.Mismatches != 0 || st.Repaired != 0 {
		t.Fatalf("pass stats = %+v", st)
	}
	if _, err := reps[2].read(1); err == nil {
		t.Fatal("unhealthy replica was touched")
	}
}

func TestBackgroundLoopRepairs(t *testing.T) {
	reps := replicaSet(t, 3)
	if err := reps[0].store.Corrupt(7); err != nil {
		t.Fatal(err)
	}
	s := scrubber(reps)
	s.Start()
	defer s.Stop()
	testutil.WaitFor(t, 2*time.Second, "the background loop to repair the corrupt chunk", func() bool {
		_, err := reps[0].read(7)
		return err == nil
	})
	s.Stop() // idempotent
}

func TestObsCounters(t *testing.T) {
	reps := replicaSet(t, 3)
	if err := reps[1].store.Corrupt(3); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rs := make([]Replica, len(reps))
	for i, r := range reps {
		rs[i] = r
	}
	s := New(Config{Name: "m1", Replicas: rs, Slots: testSlots, ChunkSize: testChunk, Obs: reg})
	if _, err := s.RunPass(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("scrub.m1.passes").Value(); got != 1 {
		t.Fatalf("passes = %d", got)
	}
	if got := reg.Counter("scrub.m1.scanned").Value(); got != testSlots {
		t.Fatalf("scanned = %d", got)
	}
	if got := reg.Counter("scrub.m1.repaired").Value(); got != 1 {
		t.Fatalf("repaired = %d", got)
	}
}

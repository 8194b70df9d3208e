package replicate

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/scrub"
)

// racedReplica is a box target as the scrubber sees it, with a hook that
// runs once after the target's read of one slot: the seam where a write can
// land between a scrub pass's reads and its repair.
type racedReplica struct {
	*Target
	slot      uint64
	afterRead func()
}

func (r *racedReplica) ReadChunk(slot uint64, dst []byte) error {
	err := r.Target.ReadChunk(slot, dst)
	if slot == r.slot && r.afterRead != nil {
		hook := r.afterRead
		r.afterRead = nil
		hook()
	}
	return err
}

// TestScrubRepairDoesNotRevertWrite: a scrub pass reads a slot on every
// backend — two agree, the third is corrupt — and then a write lands
// everywhere before the pass repairs the third backend from its stale
// majority. The repair must be refused, or it reverts that backend to the
// pre-write content under a write the box acknowledged.
func TestScrubRepairDoesNotRevertWrite(t *testing.T) {
	stores := memStores(t, 3)
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()
	const slot = 3
	lba := uint64(slot * testChunk / testBS)
	if err := b.WriteAt(bytes.Repeat([]byte{1}, testChunk), lba); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, b)
	if err := stores[2].Store.Corrupt(slot); err != nil {
		t.Fatal(err)
	}

	var reps []scrub.Replica
	for _, tg := range b.Targets() {
		reps = append(reps, &racedReplica{Target: tg, slot: slot})
	}
	reps[2].(*racedReplica).afterRead = func() {
		if err := b.WriteAt(bytes.Repeat([]byte{2}, testChunk), lba); err != nil {
			t.Error(err)
		}
		waitDrained(t, b)
	}
	sc := scrub.New(scrub.Config{Name: "raced", Replicas: reps, Slots: testSlots, ChunkSize: testChunk, Obs: obs.NewRegistry()})
	st, err := sc.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 0 {
		t.Errorf("pass repaired %d replica-slots from content a write had overtaken", st.Repaired)
	}
	requireConverged(t, b, stores)
}

package replicate

import (
	"bytes"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/testutil"
)

// requireConverged fails unless every backend holds the primary's content.
func requireConverged(t *testing.T, b *Box, stores []NamedStore) {
	t.Helper()
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
}

// gatedBackend holds PutChunk at a gate and, once lost, fails it: a backend
// the box's write had not reached when the box died.
type gatedBackend struct {
	cas.Backend
	gate chan struct{}
	lost atomic.Bool
}

func (g *gatedBackend) PutChunk(id cas.ID, data []byte) error {
	<-g.gate
	if g.lost.Load() {
		return errors.New("injected: backend unreachable")
	}
	return g.Backend.PutChunk(id, data)
}

// TestStragglerReplayedAfterCrash: a write returns at quorum while the third
// backend has not applied it; the box dies; the successor's journal replay —
// not a scrub pass — must bring that backend level.
func TestStragglerReplayedAfterCrash(t *testing.T) {
	gb := &gatedBackend{Backend: cas.NewMemBackend(testSlots), gate: make(chan struct{})}
	slow, err := cas.Open(gb, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(memStores(t, 2), NamedStore{Name: "slow", Store: slow})
	dir := t.TempDir()
	disk, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	b := newBoxOn(t, dir, disk, stores, 2)

	p := make([]byte, testChunk)
	rand.New(rand.NewSource(4)).Read(p)
	start := time.Now()
	if err := b.WriteAt(p, 8); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) >= 200*time.Millisecond {
		t.Fatal("write waited out the hedge instead of returning at quorum")
	}
	if n := b.Pending(); n != 0 {
		t.Fatalf("%d writes below quorum after a quorum return", n)
	}
	if n := b.log.Pending(); n != 1 {
		t.Fatalf("journal holds %d uncommitted records with one backend still owed, want 1", n)
	}

	killed := make(chan struct{})
	go func() {
		b.Kill()
		close(killed)
	}()
	testutil.WaitFor(t, 5*time.Second, "box to freeze", b.Killed)
	gb.lost.Store(true)
	close(gb.gate)
	<-killed

	gb.lost.Store(false)
	b2 := newBoxOn(t, dir, disk, stores, 2)
	defer b2.Close()
	if b2.Replayed() < 1 {
		t.Fatal("successor replayed nothing: the straggler's write was committed at quorum")
	}
	requireConverged(t, b2, stores)
}

// TestFailedWriteCommitsJournalRecord: a write that fails after its journal
// append must not leave the record uncommitted, or its segment is pinned
// for the life of the box.
func TestFailedWriteCommitsJournalRecord(t *testing.T) {
	mem, err := blockdev.NewMemDisk(testBS, testBlocks)
	if err != nil {
		t.Fatal(err)
	}
	primary := blockdev.NewFaultDisk(mem)
	stores := memStores(t, 2)
	b := newBoxOn(t, t.TempDir(), primary, stores, 2)
	defer b.Close()

	injected := errors.New("injected: primary offline")
	primary.Trip(injected)
	// 80 × 16 KiB fills the first 1 MiB journal segment and rotates.
	p := bytes.Repeat([]byte{9}, 4*testChunk)
	for i := 0; i < 80; i++ {
		if err := b.WriteAt(p, 0); !errors.Is(err, injected) {
			t.Fatalf("write %d on a failed primary: %v", i, err)
		}
		if n := b.log.Pending(); n != 0 {
			t.Fatalf("write %d left %d journal records uncommitted", i, n)
		}
	}
	primary.Heal()
	if err := b.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, b)
	if n := b.log.Pending(); n != 0 {
		t.Fatalf("journal holds %d uncommitted records after drain", n)
	}
	if n := b.log.Segments(); n != 1 {
		t.Fatalf("journal holds %d segments, want 1: the failed writes pinned the first", n)
	}
	requireConverged(t, b, stores)
}

// TestPrimaryIOBudget pins what a write costs the primary: one write, and a
// read only per chunk the write covers partly.
func TestPrimaryIOBudget(t *testing.T) {
	// 250 blocks: 31 whole chunks and a 2-block tail chunk.
	mem, err := blockdev.NewMemDisk(testBS, 250)
	if err != nil {
		t.Fatal(err)
	}
	primary := blockdev.NewCountingDisk(mem)
	stores := memStores(t, 3)
	b := newBoxOn(t, t.TempDir(), primary, stores, 2)
	defer b.Close()
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		name          string
		lba, blocks   uint64
		writes, reads int64
	}{
		{"aligned 4 KiB", 8, 8, 1, 0},
		{"aligned 16 KiB", 16, 32, 1, 0},
		{"2 KiB at 1 KiB", 2, 4, 1, 1},
		{"12 KiB over two chunk boundaries", 60, 24, 1, 2},
		{"up to the unaligned end of the image", 240, 10, 1, 1},
	} {
		p := make([]byte, tc.blocks*testBS)
		rng.Read(p)
		w, r := primary.Writes(), primary.Reads()
		if err := b.WriteAt(p, tc.lba); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if w, r = primary.Writes()-w, primary.Reads()-r; w != tc.writes || r != tc.reads {
			t.Errorf("%s: %d writes / %d reads on the primary, want %d / %d", tc.name, w, r, tc.writes, tc.reads)
		}
	}
	waitDrained(t, b)
	requireConverged(t, b, stores)
}

// TestCallerReusesBufferAfterReturn: the box must not keep p. WriteAt
// returns at quorum while one backend has not applied the job yet; the
// caller then recycles its buffer, as the relay does.
func TestCallerReusesBufferAfterReturn(t *testing.T) {
	gate := make(chan struct{})
	bb := &blockingBackend{Backend: cas.NewMemBackend(testSlots), gate: gate}
	held, err := cas.Open(bb, testChunk, testSlots)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(memStores(t, 2), NamedStore{Name: "held", Store: held})
	b := newBox(t, t.TempDir(), stores, 2)
	defer b.Close()

	rng := rand.New(rand.NewSource(8))
	p := make([]byte, 3*testChunk)
	for _, lba := range []uint64{16, 43} { // chunk-aligned, then not
		rng.Read(p)
		if err := b.WriteAt(p, lba); err != nil {
			t.Fatal(err)
		}
		for i := range p {
			p[i] = 0xEE
		}
	}
	close(gate)
	waitDrained(t, b)
	requireConverged(t, b, stores)
}

package middlebox

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/services/replicate"
	"repro/internal/testutil"
)

// downBackend is a content backend whose writes fail while down is set.
type downBackend struct {
	cas.Backend
	down atomic.Bool
}

var errCASDown = errors.New("injected: backend volume unreachable")

func (d *downBackend) PutChunk(slot uint64, id cas.ID, data []byte) error {
	if d.down.Load() {
		return errCASDown
	}
	return d.Backend.PutChunk(slot, id, data)
}

func (d *downBackend) SetMapping(slot uint64, id cas.ID) error {
	if d.down.Load() {
		return errCASDown
	}
	return d.Backend.SetMapping(slot, id)
}

// TestWriteBackRidesOutQuorumLoss stacks the relay's recovering write-back
// device over a replicate box, as the platform does (three backends, quorum
// two), and fails two backends. Writes keep early-acking into the journal
// until it is full; the box's quorum refusals are retried, never taken for a
// lost backend, so the box is never reopened. After heal and Probe every
// write is on every backend and no journal entry is recorded as failed.
func TestWriteBackRidesOutQuorumLoss(t *testing.T) {
	const (
		bs, chunk = 512, 4096
		slots     = 32
		fill      = 16 // writes the journal holds
	)
	primary, err := blockdev.NewMemDisk(bs, slots*chunk/bs)
	if err != nil {
		t.Fatal(err)
	}
	var bes []*downBackend
	var stores []replicate.NamedStore
	for i := 0; i < 3; i++ {
		be := &downBackend{Backend: cas.NewMemBackend(slots)}
		s, err := cas.Open(be, chunk, slots)
		if err != nil {
			t.Fatal(err)
		}
		bes = append(bes, be)
		stores = append(stores, replicate.NamedStore{Name: fmt.Sprintf("backend%d", i), Store: s})
	}
	box, err := replicate.New(replicate.Config{
		Name: "wb", Quorum: 2, WALDir: t.TempDir(), ProbeInterval: time.Hour, Obs: obs.NewRegistry(),
	}, primary, stores)
	if err != nil {
		t.Fatal(err)
	}
	var reopens atomic.Int32
	j := NewJournal(fill * chunk)
	wb := NewWriteBackRecovering(box, j, func() (blockdev.Device, error) {
		reopens.Add(1)
		return box, nil
	})
	defer wb.Close()

	bes[1].down.Store(true)
	bes[2].down.Store(true)
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, chunk) }
	for i := 0; i < fill; i++ {
		start := time.Now()
		if err := wb.WriteAt(payload(i), uint64(i*chunk/bs)); err != nil {
			t.Fatalf("write %d with quorum lost: %v", i, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("write %d took %v: not early-acked", i, d)
		}
	}
	// The journal is full: the next write waits for room.
	last := make(chan error, 1)
	go func() { last <- wb.WriteAt(payload(fill), uint64(fill*chunk/bs)) }()
	select {
	case err := <-last:
		t.Fatalf("write past a full journal returned %v while quorum was lost", err)
	case <-time.After(50 * time.Millisecond):
	}

	bes[1].down.Store(false)
	bes[2].down.Store(false)
	testutil.WaitFor(t, 10*time.Second, "the box to readmit both backends", func() bool {
		box.Probe()
		return !box.BreakerOpen()
	})
	if err := <-last; err != nil {
		t.Fatalf("write past the full journal: %v", err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	testutil.WaitFor(t, 10*time.Second, "the box to drain", box.Drained)

	if n := reopens.Load(); n != 0 {
		t.Fatalf("write-back reopened the box %d times over a quorum loss", n)
	}
	if !j.clean() {
		t.Fatal("journal not clean: an entry was recorded as failed or never applied")
	}
	img := make([]byte, slots*chunk)
	if err := primary.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= fill; i++ {
		if !bytes.Equal(img[i*chunk:(i+1)*chunk], payload(i)) {
			t.Fatalf("write %d missing from the primary", i)
		}
	}
	want := cas.ID(sha256.Sum256(img))
	for _, ns := range stores {
		got, err := ns.Store.LogicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s diverged from the primary", ns.Name)
		}
	}
}

package middlebox

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/testutil"
	"repro/internal/xerr"
)

// flakyBackend is a unit-test backend over a shared MemDisk: writes fail
// while down is set, Close never touches the shared disk, and every
// successful write is recorded in apply order.
type flakyBackend struct {
	disk *blockdev.MemDisk
	down atomic.Bool

	mu  sync.Mutex
	log []appliedWrite

	closed atomic.Int32
}

type appliedWrite struct {
	lba   uint64
	first byte
}

var errBackendDown = errors.New("backend session lost")

func (b *flakyBackend) BlockSize() int { return b.disk.BlockSize() }
func (b *flakyBackend) Blocks() uint64 { return b.disk.Blocks() }

func (b *flakyBackend) WriteAt(p []byte, lba uint64) error {
	if b.down.Load() {
		return errBackendDown
	}
	if err := b.disk.WriteAt(p, lba); err != nil {
		return err
	}
	b.mu.Lock()
	b.log = append(b.log, appliedWrite{lba: lba, first: p[0]})
	b.mu.Unlock()
	return nil
}

func (b *flakyBackend) ReadAt(p []byte, lba uint64) error {
	if b.down.Load() {
		return errBackendDown
	}
	return b.disk.ReadAt(p, lba)
}

func (b *flakyBackend) Flush() error {
	if b.down.Load() {
		return errBackendDown
	}
	return nil
}

func (b *flakyBackend) Close() error {
	b.closed.Add(1)
	return nil
}

func (b *flakyBackend) applied() []appliedWrite {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]appliedWrite(nil), b.log...)
}

// waitDegraded waits until the device enters (or leaves) degraded mode.
func waitDegraded(t *testing.T, wb *WriteBackDevice, want bool) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, fmt.Sprintf("degraded=%v", want), func() bool { return degraded(wb) == want })
}

// TestWriteBackRecoversAndReplaysJournal kills the backend mid-workload via
// a seed-deterministic schedule, lets the reopen hook fail twice, and
// asserts the full workload lands with the journal drained — the tentpole's
// replay path plus the StateFailed byte-reclaim fix in one run.
func TestWriteBackRecoversAndReplaysJournal(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	be := &flakyBackend{disk: disk}
	var reopens atomic.Int32
	j := NewJournal(0)
	wb := NewWriteBackRecovering(be, j, func() (blockdev.Device, error) {
		if reopens.Add(1) <= 2 {
			return nil, errBackendDown
		}
		return &flakyBackend{disk: disk}, nil
	})

	sched := faults.NewSchedule()
	sched.At(5, "kill-backend", func() { be.down.Store(true) })

	const n = 10
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 512)
		if err := wb.WriteAt(p, uint64(i)); err != nil {
			t.Fatalf("WriteAt #%d: %v", i, err)
		}
		sched.Step()
	}
	if err := wb.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	for i := 0; i < n; i++ {
		got := make([]byte, 512)
		if err := disk.ReadAt(got, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Errorf("block %d = %d, want %d", i, got[0], i+1)
		}
	}
	if got := reopens.Load(); got != 3 {
		t.Errorf("reopen attempts = %d, want 3 (two failures then success)", got)
	}
	if failures(j) == 0 {
		t.Error("backend outage recorded no journal failures")
	}
	if used := j.UsedBytes(); used != 0 {
		t.Errorf("Journal.UsedBytes() = %d after recovery, want 0", used)
	}
	if p := j.Pending(); p != 0 {
		t.Errorf("Journal.Pending() = %d after recovery, want 0", p)
	}
	if degraded(wb) {
		t.Error("device still degraded after recovery")
	}
	if err := wb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWriteBackReplayOrdersBeforeParkedWrites pins the sequence-order
// guarantee: a failed write to an extent replays before a newer parked write
// to the same extent applies, so the newest data wins.
func TestWriteBackReplayOrdersBeforeParkedWrites(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	be := &flakyBackend{disk: disk}
	be.down.Store(true)
	heal := make(chan struct{})
	healed := &flakyBackend{disk: disk}
	j := NewJournal(0)
	wb := NewWriteBackRecovering(be, j, func() (blockdev.Device, error) {
		<-heal // hold recovery until the test parked its write
		return healed, nil
	})

	a := bytes.Repeat([]byte{'A'}, 512)
	if err := wb.WriteAt(a, 7); err != nil {
		t.Fatalf("WriteAt A: %v", err)
	}
	waitDegraded(t, wb, true)

	// The backend is down and recovery is gated: this write parks.
	b := bytes.Repeat([]byte{'B'}, 512)
	if err := wb.WriteAt(b, 7); err != nil {
		t.Fatalf("WriteAt B: %v", err)
	}
	close(heal)

	if err := wb.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := make([]byte, 512)
	if err := disk.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if got[0] != 'B' {
		t.Fatalf("block 7 = %q, want 'B' (parked write must apply after replay)", got[0])
	}
	log := healed.applied()
	if len(log) != 2 || log[0].first != 'A' || log[1].first != 'B' {
		t.Fatalf("apply order on recovered backend = %+v, want A then B", log)
	}
	if used := j.UsedBytes(); used != 0 {
		t.Errorf("Journal.UsedBytes() = %d, want 0", used)
	}
	if err := wb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWriteBackRecoveryExhaustionFailsTerminally checks the bounded side of
// recovery: against a reopen that always fails, the device makes exactly
// 4 attempts, then fails terminally instead of hanging — every
// parked write completes failed, the journal records each, and callers get
// the terminal error.
func TestWriteBackRecoveryExhaustionFailsTerminally(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	be := &flakyBackend{disk: disk}
	be.down.Store(true)
	j := NewJournal(0)
	heal := make(chan struct{})
	var reopens atomic.Int32
	wb := NewWriteBackRecovering(be, j, func() (blockdev.Device, error) {
		<-heal // hold recovery until the writes below are parked
		reopens.Add(1)
		return nil, errBackendDown
	})

	if err := wb.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("first WriteAt should early-ack: %v", err)
	}
	waitDegraded(t, wb, true)
	const parked = 5
	for i := 0; i < parked; i++ {
		// Disjoint and not adjacent, so none coalesces: one entry each.
		if err := wb.WriteAt(make([]byte, 512), uint64(2+2*i)); err != nil {
			t.Fatalf("parked WriteAt %d should early-ack: %v", i, err)
		}
	}
	close(heal)
	waitDegraded(t, wb, false) // recovery gave up and failed the parked items

	if got := reopens.Load(); got != 4 {
		t.Errorf("reopen attempts = %d, want 4", got)
	}
	if err := wb.WriteAt(make([]byte, 512), 1); err == nil || !strings.Contains(err.Error(), "recovery failed") {
		t.Fatalf("post-exhaustion WriteAt err = %v, want terminal recovery error", err)
	}
	if err := wb.Flush(); err == nil || !strings.Contains(err.Error(), "recovery failed") {
		t.Fatalf("Flush err = %v, want terminal recovery error", err)
	}
	unapplied := j.Unapplied()
	if len(unapplied) != 1+parked || failures(j) != 1+parked || j.Pending() != 0 {
		t.Fatalf("journal: %d unapplied, %d failures, %d pending; want %d, %d, 0",
			len(unapplied), failures(j), j.Pending(), 1+parked, 1+parked)
	}
	for _, e := range unapplied {
		if e.State != StateFailed {
			t.Errorf("journal seq %d (lba %d) state %v, want failed", e.Seq, e.LBA, e.State)
		}
	}
	done := make(chan error, 1)
	go func() { done <- wb.Close() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after terminal recovery failure")
	}
}

// TestJournalRecompleteReclaimsFailedBytes is the direct regression test for
// the StateFailed capacity leak: a failed entry keeps its bytes until replay
// re-completes it, at which point the space must come back.
func TestJournalRecompleteReclaimsFailedBytes(t *testing.T) {
	j := NewJournal(1024)
	seq, _, err := j.Append(3, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	j.Complete(seq, errBackendDown)
	if used := j.UsedBytes(); used != 512 {
		t.Fatalf("UsedBytes after failure = %d, want 512 (kept for replay)", used)
	}
	if got := failures(j); got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
	un := j.Unapplied()
	if len(un) != 1 || un[0].Seq != seq || un[0].State != StateFailed {
		t.Fatalf("Unapplied = %+v, want the failed entry", un)
	}
	// Replay path: re-complete with success reclaims the bytes.
	j.Complete(seq, nil)
	if used := j.UsedBytes(); used != 0 {
		t.Fatalf("UsedBytes after re-complete = %d, want 0", used)
	}
	if len(j.Unapplied()) != 0 {
		t.Fatal("entry still journaled after re-complete")
	}
	// The freed capacity is usable again.
	if _, _, err := j.Append(0, make([]byte, 1024)); err != nil {
		t.Fatalf("Append after reclaim: %v", err)
	}
}

// busyBackend refuses its first busy writes with an Overload-classed error,
// the way a replicate box short of its quorum does.
type busyBackend struct {
	*flakyBackend
	busy atomic.Int32
}

func (b *busyBackend) WriteAt(p []byte, lba uint64) error {
	if b.busy.Add(-1) >= 0 {
		return xerr.New(xerr.Overload, "backend busy")
	}
	return b.flakyBackend.WriteAt(p, lba)
}

// TestWriteBackRetriesBusyBackend: a backend that answers Overload is busy,
// not lost. The write-back device backs off and retries the same write until
// it lands; it never reopens the backend, and the journal ends clean.
func TestWriteBackRetriesBusyBackend(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	be := &busyBackend{flakyBackend: &flakyBackend{disk: disk}}
	be.busy.Store(6)
	var reopens atomic.Int32
	j := NewJournal(0)
	wb := NewWriteBackRecovering(be, j, func() (blockdev.Device, error) {
		reopens.Add(1)
		return be, nil
	})
	defer wb.Close()
	want := bytes.Repeat([]byte{0x5a}, 512)
	if err := wb.WriteAt(want, 3); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n := reopens.Load(); n != 0 {
		t.Fatalf("backend reopened %d times for an Overload refusal, want 0", n)
	}
	got := make([]byte, 512)
	if err := disk.ReadAt(got, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the busy-refused write never reached the backend")
	}
	if !j.clean() {
		t.Fatal("journal not clean after the busy backend took the write")
	}
}

// TestWriteBackCloseEndsBusyRetry: a backend that answers Overload forever
// (a replicate box that lost quorum for good while writes kept arriving)
// must not hold Close up. Once Close begins, the busy write fails into the
// recovery path, whose reopens fail the same way, and Close returns.
func TestWriteBackCloseEndsBusyRetry(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	be := &busyBackend{flakyBackend: &flakyBackend{disk: disk}}
	be.busy.Store(math.MaxInt32)
	j := NewJournal(0)
	wb := NewWriteBackRecovering(be, j, func() (blockdev.Device, error) { return be, nil })
	if err := wb.WriteAt(bytes.Repeat([]byte{0x5a}, 512), 3); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- wb.Close() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked behind a backend that is busy forever")
	}
	if j.clean() {
		t.Fatal("journal clean, but the busy backend never took the write")
	}
}

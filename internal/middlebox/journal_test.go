package middlebox

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/testutil"
	"repro/internal/wal"
	"repro/internal/xerr"
)

// openJournal builds a journal of the given capacity: the in-memory one, or
// a WAL-backed one in a fresh directory (closed at test end).
func openJournal(t *testing.T, durable bool, capacity int, opts wal.Options) *Journal {
	t.Helper()
	if !durable {
		return NewJournal(capacity)
	}
	j, err := NewDurableJournal(filepath.Join(t.TempDir(), "j"), wal.Meta{}, capacity, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// forEachMode runs f once per journal mode, as subtests "mem" and "wal".
func forEachMode(t *testing.T, capacity int, f func(t *testing.T, j *Journal)) {
	for _, m := range []struct {
		name    string
		durable bool
	}{{"mem", false}, {"wal", true}} {
		t.Run(m.name, func(t *testing.T) { f(t, openJournal(t, m.durable, capacity, wal.Options{})) })
	}
}

// scan recounts the journal's pending entries and held bytes the slow way;
// tests assert it always matches the counters.
func (j *Journal) scan() (pending, used int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range j.entries {
		if e.State == StateAcked {
			pending++
		}
		used += len(e.Data)
	}
	return pending, used
}

// TestPendingCounterMatchesScan drives a randomized append/complete/fail/
// replay workload and asserts after every step that the O(1) pending and
// used-bytes counters agree with a full scan of the entry map and with the
// test's own model.
func TestPendingCounterMatchesScan(t *testing.T) {
	forEachMode(t, 0, func(t *testing.T, j *Journal) {
		data := []byte("pending-counter")
		rng := rand.New(rand.NewSource(7))
		var acked, failed []uint64
		applyErr := errors.New("backend down")
		check := func(step int) {
			t.Helper()
			pending, used := j.scan()
			if got := j.Pending(); got != pending || got != len(acked) {
				t.Fatalf("step %d: Pending() = %d, scan = %d, model = %d", step, got, pending, len(acked))
			}
			if got, want := j.UsedBytes(), len(data)*(len(acked)+len(failed)); got != used || got != want {
				t.Fatalf("step %d: UsedBytes() = %d, scan = %d, model = %d", step, got, used, want)
			}
		}
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // append
				seq, _, err := j.Append(uint64(rng.Intn(1024))*8, data)
				if err != nil {
					t.Fatalf("step %d: Append: %v", step, err)
				}
				acked = append(acked, seq)
			case op < 7 && len(acked) > 0: // complete success
				i := rng.Intn(len(acked))
				j.Complete(acked[i], nil)
				acked = append(acked[:i], acked[i+1:]...)
			case op < 9 && len(acked) > 0: // complete failure
				i := rng.Intn(len(acked))
				j.Complete(acked[i], applyErr)
				failed = append(failed, acked[i])
				acked = append(acked[:i], acked[i+1:]...)
			case len(failed) > 0: // replay a failed entry to success
				i := rng.Intn(len(failed))
				j.Complete(failed[i], nil)
				failed = append(failed[:i], failed[i+1:]...)
			}
			check(step)
		}
		// Double-completes and completes of unknown seqs must not skew the
		// counters.
		j.Complete(999999, nil)
		j.Complete(999999, applyErr)
		for _, seq := range acked {
			j.Complete(seq, nil)
			j.Complete(seq, nil)
		}
		for _, seq := range failed {
			j.Complete(seq, nil)
		}
		acked, failed = nil, nil
		check(-1)
	})
}

// TestJournalCapacity: an append past capacity fails with ErrJournalFull,
// and completing an entry frees its space for the next one.
func TestJournalCapacity(t *testing.T) {
	forEachMode(t, 8, func(t *testing.T, j *Journal) {
		seq, _, err := j.Append(0, []byte("12345678"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := j.Append(8, []byte("x")); !errors.Is(err, ErrJournalFull) {
			t.Fatalf("over-capacity append: %v, want ErrJournalFull", err)
		}
		j.Complete(seq, nil)
		if _, _, err := j.Append(8, []byte("x")); err != nil {
			t.Fatalf("append after space freed: %v", err)
		}
	})
}

// TestFailuresWindowBounded: a long outage grows no per-failure state
// beyond the failed entries themselves, which hold their data until a
// replay completes them; after the replay the journal holds nothing, yet
// it still reports the failures (it is not clean).
func TestFailuresWindowBounded(t *testing.T) {
	forEachMode(t, 0, func(t *testing.T, j *Journal) {
		const total = 500
		seqs := make([]uint64, total)
		for i := range seqs {
			seq, _, err := j.Append(uint64(i)*8, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] = seq
			j.Complete(seq, fmt.Errorf("outage failure #%d", i))
		}
		if pending, used := j.scan(); pending != 0 || used != total {
			t.Fatalf("after the outage: %d pending, %d bytes held; want 0 and %d", pending, used, total)
		}
		for _, seq := range seqs {
			j.Complete(seq, nil) // the replay
		}
		if pending, used := j.scan(); pending != 0 || used != 0 {
			t.Fatalf("after the replay: %d pending, %d bytes held; want none", pending, used)
		}
		if n := failures(j); n != total || j.clean() {
			t.Fatalf("%d failures recorded (clean=%v), want %d and not clean", n, j.clean(), total)
		}
	})
}

// TestFailuresUnderCapKeepsAll: every failed apply is counted; none is
// dropped.
func TestFailuresUnderCapKeepsAll(t *testing.T) {
	forEachMode(t, 0, func(t *testing.T, j *Journal) {
		for i := 0; i < 32; i++ {
			seq, _, err := j.Append(uint64(i)*8, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			j.Complete(seq, fmt.Errorf("failure #%d", i))
			if n := failures(j); n != i+1 {
				t.Fatalf("after %d failures: %d counted", i+1, n)
			}
		}
	})
}

// TestDurableJournalContract runs the WAL-backed journal through its
// lifecycle and checks crash-visible state: appends survive a Kill and
// reopen.
func TestDurableJournalContract(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	j, err := NewDurableJournal(dir, wal.Meta{Attrs: map[string]string{"iqn": "iqn.test:v"}}, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := j.Append(0, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := j.Append(512, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := j.Pending(), 2; got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	j.Complete(s1, nil)
	if got := j.Pending(); got != 1 {
		t.Fatalf("Pending after complete = %d, want 1", got)
	}
	if got := j.UsedBytes(); got != len("second") {
		t.Fatalf("UsedBytes = %d, want %d", got, len("second"))
	}
	un := j.Unapplied()
	if len(un) != 1 || un[0].Seq != s2 || string(un[0].Data) != "second" {
		t.Fatalf("Unapplied = %+v, want just seq %d", un, s2)
	}
	j.Kill()
	if _, _, err := j.Append(1024, []byte("dead")); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("Append after Kill: %v, want ErrJournalClosed", err)
	}

	// The WAL must hold exactly the uncommitted write.
	_, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("Open killed journal's WAL: %v", err)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != s2 || string(rec.Records[0].Data) != "second" {
		t.Fatalf("WAL recovery = %+v, want the single unapplied write", rec.Records)
	}
	if rec.Meta.Attrs["iqn"] != "iqn.test:v" {
		t.Fatalf("meta lost: %+v", rec.Meta)
	}
}

func TestDurableJournalCleanCloseRemovesWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	j, err := NewDurableJournal(dir, wal.Meta{}, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := j.Append(0, []byte("applied"))
	if err != nil {
		t.Fatal(err)
	}
	j.Complete(seq, nil)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := wal.Open(dir, wal.Options{}); err == nil {
		t.Fatalf("clean Close left the WAL behind")
	}
}

// gateQuota admits every charge until armed; from then on each charge waits
// for release, parking whoever holds the log's mutex (Consume runs under it).
type gateQuota struct {
	armed   atomic.Bool
	parked  chan struct{} // receives once per parked charge
	release chan struct{}
}

func (q *gateQuota) Consume(uint64) error {
	if q.armed.Load() {
		q.parked <- struct{}{}
		<-q.release
	}
	return nil
}

func (q *gateQuota) Release(uint64) {}

// TestCompleteDoesNotHoldJournalAcrossCommit: at sync window 0 an append
// holds the log's mutex until its record is durable, so a Complete that
// kept the journal's mutex while writing its commit would stall every
// Append reservation and Pending/UsedBytes poll behind that append. Here the
// append is parked inside the log by its quota charge; while a Complete
// waits on the log for it, Pending and UsedBytes must still return.
func TestCompleteDoesNotHoldJournalAcrossCommit(t *testing.T) {
	// Two charges can park: the append's, then the commit's once freed.
	q := &gateQuota{parked: make(chan struct{}, 2), release: make(chan struct{})}
	j := openJournal(t, true, 0, wal.Options{Quota: q})
	buf := make([]byte, 4096)
	seq, _, err := j.Append(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var once sync.Once
	free := func() {
		once.Do(func() { q.armed.Store(false); close(q.release) })
		wg.Wait()
	}
	defer free()
	q.armed.Store(true)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, _, err := j.Append(8, buf); err != nil {
			t.Errorf("parked append: %v", err)
		}
	}()
	<-q.parked
	completed := make(chan struct{})
	go func() {
		defer wg.Done()
		j.Complete(seq, nil)
		close(completed)
	}()
	// Pending reads 0 once Complete has dropped the entry; a Complete that
	// still held the journal's mutex would block this poll instead.
	polled := make(chan int, 1)
	go func() {
		for j.Pending() != 0 {
			runtime.Gosched()
		}
		polled <- j.UsedBytes()
	}()
	select {
	case used := <-polled:
		// The parked append has reserved its bytes.
		if used != len(buf) {
			t.Errorf("UsedBytes = %d, want %d", used, len(buf))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pending blocked behind a Complete waiting on the log")
	}
	select {
	case <-completed:
		t.Fatal("Complete returned before the log took its commit")
	default:
	}
	free()
	if got := j.Pending(); got != 1 {
		t.Fatalf("Pending after the append lands = %d, want 1", got)
	}
}

// holdDisk counts the writes that reach it and, when release is set, holds
// the first one until release closes: a backend apply kept in flight.
type holdDisk struct {
	*blockdev.MemDisk
	arrivals atomic.Int64
	held     chan struct{} // closed once the first write arrives
	release  chan struct{}
	once     sync.Once
}

// free lets the held write, and every later one, through.
func (d *holdDisk) free() { d.once.Do(func() { close(d.release) }) }

func (d *holdDisk) WriteAt(p []byte, lba uint64) error {
	if d.arrivals.Add(1) == 1 && d.release != nil {
		close(d.held)
		<-d.release
	}
	return d.MemDisk.WriteAt(p, lba)
}

// countingQuota is a WAL disk quota that counts the charges it refused.
type countingQuota struct {
	*faults.DiskFull
	refused atomic.Int64
}

func (q *countingQuota) Consume(n uint64) error {
	err := q.DiskFull.Consume(n)
	if err != nil {
		q.refused.Add(1)
	}
	return err
}

// logBytes returns what a fresh log charges its quota for its meta record
// and appends more n-byte appends.
func logBytes(t *testing.T, appends, n int) uint64 {
	t.Helper()
	q := &meteredQuota{}
	l, err := wal.Create(filepath.Join(t.TempDir(), "probe"), wal.Meta{}, wal.Options{Quota: q})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < appends; i++ {
		if _, err := l.Append(0, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	return q.used
}

// meteredQuota admits every charge and keeps the running total.
type meteredQuota struct{ used uint64 }

func (q *meteredQuota) Consume(n uint64) error { q.used += n; return nil }
func (q *meteredQuota) Release(n uint64)       { q.used -= n }

// TestWriteBackJournalErrors pins the write-back device's reading of a
// WAL-backed journal's Append errors. No room (ErrJournalFull, ErrWALFull)
// waits for the in-flight applies, or writes through when there are none;
// a killed journal refuses; and a log that cannot record refuses with a
// Terminal error and is never written around.
func TestWriteBackJournalErrors(t *testing.T) {
	block := func(v byte) []byte { return bytes.Repeat([]byte{v}, 512) }
	type env struct {
		j     *Journal
		wb    *WriteBackDevice
		disk  *holdDisk
		quota *countingQuota
	}
	// landed asserts block lba holds value v on the backend.
	landed := func(t *testing.T, e *env, lba uint64, v byte) {
		t.Helper()
		got := make([]byte, 512)
		if err := e.disk.MemDisk.ReadAt(got, lba); err != nil {
			t.Fatal(err)
		}
		if got[0] != v {
			t.Fatalf("backend block %d = %d, want %d", lba, got[0], v)
		}
	}
	// parkBehindHeldApply journals a write whose apply the backend holds,
	// then starts a same-block write the full WAL refuses, and returns its
	// result channel once the refusal happened.
	parkBehindHeldApply := func(t *testing.T, e *env) <-chan error {
		t.Helper()
		if err := e.wb.WriteAt(block(1), 0); err != nil {
			t.Fatal(err)
		}
		<-e.disk.held
		done := make(chan error, 1)
		go func() { done <- e.wb.WriteAt(block(2), 0) }()
		testutil.WaitFor(t, 5*time.Second, "the full WAL to refuse the second write", func() bool { return e.quota.refused.Load() > 0 })
		return done
	}
	for _, tc := range []struct {
		name     string
		capacity int
		appends  int  // appends the WAL quota admits after its meta record; -1: no quota
		hold     bool // hold the first backend write in flight
		run      func(t *testing.T, e *env)
	}{
		{name: "capacity full, idle: write through", capacity: 512, appends: -1, run: func(t *testing.T, e *env) {
			if err := e.wb.WriteAt(bytes.Repeat([]byte{7}, 1024), 4); err != nil {
				t.Fatalf("over-capacity write on an idle device: %v", err)
			}
			landed(t, e, 5, 7)
		}},
		{name: "wal full, idle: write through", appends: 0, run: func(t *testing.T, e *env) {
			if err := e.wb.WriteAt(block(7), 4); err != nil {
				t.Fatalf("WAL-full write on an idle device: %v", err)
			}
			if e.quota.refused.Load() == 0 {
				t.Fatal("the WAL quota never refused a record")
			}
			landed(t, e, 4, 7)
		}},
		{name: "wal full, busy: wait", appends: 1, hold: true, run: func(t *testing.T, e *env) {
			done := parkBehindHeldApply(t, e)
			select {
			case err := <-done:
				t.Fatalf("WAL-full write returned (%v) while an apply was in flight", err)
			case <-time.After(20 * time.Millisecond):
			}
			e.disk.free()
			if err := <-done; err != nil {
				t.Fatalf("WAL-full write after the apply drained: %v", err)
			}
			if err := e.wb.Flush(); err != nil {
				t.Fatal(err)
			}
			landed(t, e, 0, 2)
		}},
		{name: "wal full, then kill: refuse", appends: 1, hold: true, run: func(t *testing.T, e *env) {
			done := parkBehindHeldApply(t, e)
			killed := make(chan struct{})
			go func() { e.wb.Kill(); close(killed) }()
			if err := <-done; err == nil {
				t.Fatal("a write parked on a full WAL succeeded across a kill")
			}
			e.disk.free()
			<-killed
			if n := e.disk.arrivals.Load(); n != 1 {
				t.Fatalf("%d backend writes, want only the apply issued before the kill", n)
			}
		}},
		{name: "closed log: refuse", appends: -1, run: func(t *testing.T, e *env) {
			if err := e.j.log.Close(); err != nil {
				t.Fatal(err)
			}
			err := e.wb.WriteAt(block(7), 4)
			if !errors.Is(err, wal.ErrClosed) || !xerr.IsTerminal(err) {
				t.Fatalf("write against a closed log: err = %v, want Terminal wal.ErrClosed", err)
			}
			if n := e.disk.arrivals.Load(); n != 0 {
				t.Fatalf("%d write(s) reached the backend around a journal that cannot record", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, err := blockdev.NewMemDisk(512, 64)
			if err != nil {
				t.Fatal(err)
			}
			e := &env{disk: &holdDisk{MemDisk: mem}}
			if tc.hold {
				e.disk.held, e.disk.release = make(chan struct{}), make(chan struct{})
			}
			var opts wal.Options
			if tc.appends >= 0 {
				e.quota = &countingQuota{DiskFull: faults.NewDiskFull(logBytes(t, tc.appends, 512))}
				opts.Quota = e.quota
			}
			e.j = openJournal(t, true, tc.capacity, opts)
			e.wb = NewWriteBack(e.disk, e.j)
			defer e.wb.Close()
			if tc.hold {
				defer e.disk.free() // before Close: it drains the held apply
			}
			tc.run(t, e)
		})
	}
}

// failures is how many applies j saw fail after early acknowledgement.
func failures(j *Journal) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// degraded reports whether w is riding out a backend outage on its journal.
func degraded(w *WriteBackDevice) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.degraded
}

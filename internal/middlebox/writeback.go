package middlebox

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/bufpool"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/xerr"
)

// ErrBackpressure reports a write refused because the write-back journal
// sits over its high watermark: the relay stops early-acking and pushes the
// overload to the source (SCSI BUSY on the wire) instead of absorbing it
// into unbounded ack latency. Classed xerr.Overload — retry after backoff.
var ErrBackpressure = xerr.New(xerr.Overload, "middlebox: write-back journal over high watermark")

// applyParallelism bounds concurrent backend applies. The relay forwards
// journaled writes as fast as the pseudo-client connection accepts them,
// like the prototype's kernel TCP stack; overlapping writes stay ordered.
const applyParallelism = 16

// maxCoalescedBytes is the default cap on how large an adjacent-extent merge
// may grow. 256 KiB matches the default MaxBurstLength, so a coalesced apply
// is at most one burst — the paper's "several packets per copy" batching
// without unbounded latency for the first write in the run. The relay
// overrides it with the forward leg's actually negotiated burst window
// (SetMaxCoalesce).
const maxCoalescedBytes = 256 * 1024

// RecoveryConfig arms a WriteBackDevice with a backend-reopen path: when a
// journaled apply keeps failing, the device assumes the pseudo-client session
// is lost, reopens the backend through the hook, replays the journal, and
// resumes — the split-connection consistency story of Section III-B. A zero
// Reopen hook leaves the device in legacy mode, where the first backend
// failure sticks and stops early-acking.
type RecoveryConfig struct {
	// Reopen re-establishes the backend (dial, login, rebuild the service
	// chain) and returns a fresh device.
	Reopen func() (blockdev.Device, error)
	// MaxReopens bounds reopen attempts per outage (default 4). When
	// exhausted, the device fails terminally: parked writes complete with
	// the terminal error and the journal records each as a failure.
	MaxReopens int
	// MaxApplyTries bounds in-place apply attempts per item before the
	// backend is declared lost (default 2).
	MaxApplyTries int
	// BackoffBase/BackoffCap shape the reopen backoff (defaults 2ms/100ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed makes the backoff jitter deterministic.
	Seed int64
}

// WriteBackDevice implements the active-relay acknowledgement semantics as
// a device decorator: WriteAt journals the data to the non-volatile buffer
// and returns immediately (the pseudo-server then acknowledges the source),
// while background appliers push journaled writes to the backend. Writes to
// overlapping extents apply in arrival order; disjoint writes apply in
// parallel, matching the pipelining of the split TCP connections. Reads of
// ranges with pending writes wait for those writes to land, preserving
// read-your-writes consistency. Flush drains the journal before syncing the
// backend.
//
// Pending writes are indexed by a last-writer coverage map (see coverage):
// admission replaces the new extent's owners in one sorted-range splice and
// takes ordering edges only on those owners, so the dependency graph stays
// linear in the number of writes — the former implementation re-scanned the
// whole queue per dispatch, O(n²) with queue depth. When a write's dependency
// count reaches zero it moves to a ready FIFO the appliers drain. Small
// writes exactly adjacent to the undispatched tail write coalesce into one
// backend apply (see maxCoalescedBytes).
//
// With a RecoveryConfig, a backend loss parks the pipeline instead of
// sticking: new writes keep early-acking into the journal (the NVRAM absorbs
// the outage), a recovery goroutine reopens the backend and replays failed
// entries in sequence order, and the parked items then drain against the new
// device — their dependency edges already order them after every overlapping
// replayed write.
type WriteBackDevice struct {
	dev         blockdev.Device // current backend; swapped during recovery (under mu)
	bs          int             // backend geometry, fixed across reopens
	nblocks     uint64
	journal     Journal
	rec         RecoveryConfig
	maxTries    int
	backoff     *faults.Backoff
	maxCoalesce int // adjacent-merge cap in bytes (one wire burst)

	// Admission watermarks (0 = disabled): once journal usage reaches
	// wmHigh bytes, WriteAt refuses with ErrBackpressure until the appliers
	// drain usage back to wmLow (hysteresis, so the latch doesn't flap at
	// the boundary). Guarded by mu.
	wmHigh     int
	wmLow      int
	bpEngaged  bool
	gBP        *obs.Gauge
	mBPRejects *obs.Counter

	mu       sync.Mutex
	cond     *sync.Cond
	cov      coverage
	ready    []*wbItem // ndeps==0, not yet dispatched, FIFO
	tail     *wbItem   // most recently admitted undispatched item, if any
	items    int       // pending applies (admitted, not yet completed)
	inflight int       // dispatched applies not yet completed
	pending  int       // journaled writes not yet applied (≥ items with coalescing)
	closed   bool
	degraded bool  // backend lost; appliers parked, recovery running
	applyErr error // legacy: sticky first failure; recovery: terminal error
	wg       sync.WaitGroup
	recWG    sync.WaitGroup
}

// wbItem is one pending backend apply: the extent [lba, end) in blocks, the
// data to forward, and the journal seqs it carries (several after
// coalescing). data normally aliases the journal entry's stable copy (dbuf
// nil — the journal keeps the bytes alive until Complete); coalescing
// upgrades the item to its own pooled buffer (dbuf non-nil) because an
// aliased entry cannot grow.
type wbItem struct {
	lba, end uint64
	seqs     []uint64
	data     []byte
	dbuf     *bufpool.Buf

	ndeps      int       // block owners this write must apply after
	dependents []*wbItem // later writes waiting on this one
	dispatched bool

	// tctx is the admitting command's span context: the async backend apply
	// re-binds it so the forward leg's spans stay causally linked to the
	// command that early-acked. Coalesced items keep the first admitter's.
	tctx obs.SpanContext
}

// appendData grows the item's storage with p: an item still aliasing its
// journal entry upgrades to an owned pooled buffer first (the alias cannot
// grow), an owned buffer extends in place while its pool class has capacity.
func (it *wbItem) appendData(p []byte) {
	need := len(it.data) + len(p)
	if it.dbuf != nil && need <= cap(it.dbuf.B) {
		it.dbuf.B = it.dbuf.B[:need]
		copy(it.dbuf.B[need-len(p):], p)
		it.data = it.dbuf.B
		return
	}
	nb := bufpool.Get(need)
	copy(nb.B, it.data)
	copy(nb.B[len(it.data):], p)
	if it.dbuf != nil {
		it.dbuf.Release()
	}
	it.dbuf = nb
	it.data = nb.B
}

// release drops the item's data reference, returning owned storage to the
// pool (aliased journal storage is the journal's to reclaim on Complete).
func (it *wbItem) release() {
	it.data = nil
	if it.dbuf != nil {
		it.dbuf.Release()
		it.dbuf = nil
	}
}

var _ blockdev.Device = (*WriteBackDevice)(nil)

// NewWriteBack wraps dev with active-relay write-back semantics using the
// given journal. Without a recovery path, the first backend failure sticks.
func NewWriteBack(dev blockdev.Device, journal Journal) *WriteBackDevice {
	return NewWriteBackRecovering(dev, journal, RecoveryConfig{})
}

// NewWriteBackRecovering wraps dev like NewWriteBack and arms the recovery
// path when rc.Reopen is non-nil.
func NewWriteBackRecovering(dev blockdev.Device, journal Journal, rc RecoveryConfig) *WriteBackDevice {
	if rc.MaxReopens <= 0 {
		rc.MaxReopens = 4
	}
	if rc.MaxApplyTries <= 0 {
		rc.MaxApplyTries = 2
	}
	if rc.BackoffBase <= 0 {
		rc.BackoffBase = 2 * time.Millisecond
	}
	if rc.BackoffCap <= 0 {
		rc.BackoffCap = 100 * time.Millisecond
	}
	w := &WriteBackDevice{dev: dev, bs: dev.BlockSize(), nblocks: dev.Blocks(), journal: journal, rec: rc, maxTries: 1, maxCoalesce: maxCoalescedBytes}
	if rc.Reopen != nil {
		w.maxTries = rc.MaxApplyTries
		w.backoff = faults.NewBackoff(rc.BackoffBase, rc.BackoffCap, rc.Seed)
	}
	w.cond = sync.NewCond(&w.mu)
	for i := 0; i < applyParallelism; i++ {
		w.wg.Add(1)
		go w.applyLoop()
	}
	return w
}

// Journal returns the backing journal.
func (w *WriteBackDevice) Journal() Journal { return w.journal }

// SetMaxCoalesce caps adjacent-write coalescing at n bytes — the relay sets
// it to the forward leg's negotiated MaxBurstLength so one merged apply is at
// most one solicited burst. Non-positive n keeps the current cap. Call before
// the device carries traffic.
func (w *WriteBackDevice) SetMaxCoalesce(n int) {
	if n > 0 {
		w.mu.Lock()
		w.maxCoalesce = n
		w.mu.Unlock()
	}
}

// SetBackpressure arms journal admission control: writes are refused with
// ErrBackpressure while journaled-but-unapplied bytes sit at or above high,
// and admission resumes once the appliers drain usage to low (low defaults
// to high/2 when non-positive or not below high). gauge (1 while engaged)
// and rejects are optional observability hooks. Call before the device
// carries traffic.
func (w *WriteBackDevice) SetBackpressure(high, low int, gauge *obs.Gauge, rejects *obs.Counter) {
	if high <= 0 {
		return
	}
	if low <= 0 || low >= high {
		low = high / 2
	}
	w.mu.Lock()
	w.wmHigh, w.wmLow = high, low
	w.gBP, w.mBPRejects = gauge, rejects
	w.mu.Unlock()
}

// admitLocked runs the watermark hysteresis against current journal usage.
// Caller holds w.mu. It returns false when the write must be refused.
func (w *WriteBackDevice) admitLocked() bool {
	if w.wmHigh <= 0 {
		return true
	}
	used := w.journal.UsedBytes()
	switch {
	case w.bpEngaged && used > w.wmLow:
		w.mBPRejects.Inc()
		return false
	case w.bpEngaged:
		w.bpEngaged = false
		w.gBP.Set(0)
		obs.Default().Eventf("writeback", "backpressure released: journal drained to %d bytes (low watermark %d)", used, w.wmLow)
	case used >= w.wmHigh:
		w.bpEngaged = true
		w.gBP.Set(1)
		w.mBPRejects.Inc()
		obs.Default().Eventf("writeback", "backpressure engaged: journal at %d bytes (high watermark %d)", used, w.wmHigh)
		return false
	}
	return true
}

// BlockSize implements blockdev.Device.
func (w *WriteBackDevice) BlockSize() int { return w.bs }

// Blocks implements blockdev.Device.
func (w *WriteBackDevice) Blocks() uint64 { return w.nblocks }

// WriteAt journals the write and returns without waiting for the backend.
// The data is copied into pooled owned storage before return, so the caller
// may reuse p immediately (the blockdev.Device contract). When the journal
// is full it falls back to a synchronous write (after draining, to preserve
// ordering) — except while the backend is down, when it waits for recovery
// instead (the journal is the only safe place for the data).
func (w *WriteBackDevice) WriteAt(p []byte, lba uint64) error {
	bs := w.bs
	if len(p) == 0 || len(p)%bs != 0 {
		return blockdev.ErrBadLength
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return blockdev.ErrClosed
	}
	if w.applyErr != nil {
		err := w.applyErr
		w.mu.Unlock()
		return err
	}
	if !w.admitLocked() {
		w.mu.Unlock()
		return fmt.Errorf("%w (usage %d bytes)", ErrBackpressure, w.journal.UsedBytes())
	}
	w.mu.Unlock()

	// Backpressure: when the NVRAM buffer is full, wait for appliers to
	// free space rather than collapsing the pipeline with a full drain —
	// the source then sees ack latency equal to one backend drain
	// interval, exactly the split-connection flow control of the paper.
	seq, stable, err := w.journal.Append(lba, p)
	for err != nil {
		if errors.Is(err, ErrJournalClosed) {
			// Not a full buffer: the journal is gone — closed, or frozen by
			// a crash-kill that has not reached this device yet. Nothing is
			// acknowledged past that line, least of all by writing around
			// the journal: recovery replays the frozen journal over whatever
			// a write-through put on the backend after it.
			return err
		}
		w.mu.Lock()
		if w.closed || w.applyErr != nil {
			ferr := w.applyErr
			w.mu.Unlock()
			if ferr != nil {
				return ferr
			}
			return blockdev.ErrClosed
		}
		if w.items == 0 && !w.degraded {
			// Nothing in flight and still no room: the write exceeds the
			// buffer entirely; write through synchronously.
			dev := w.dev
			w.mu.Unlock()
			return dev.WriteAt(p, lba)
		}
		w.cond.Wait()
		w.mu.Unlock()
		seq, stable, err = w.journal.Append(lba, p)
	}

	end := lba + uint64(len(p)/bs)
	w.mu.Lock()
	// Coalesce: append to the undispatched tail when the new extent starts
	// exactly where the tail ends, the merge stays within one burst, and
	// the new extent conflicts with nothing pending (so applying it with
	// the tail — possibly before writes admitted in between — cannot
	// reorder overlapping data).
	if t := w.tail; t != nil && !t.dispatched && t.end == lba &&
		len(t.data)+len(p) <= w.maxCoalesce && !w.cov.overlaps(lba, end) {
		t.appendData(p)
		t.seqs = append(t.seqs, seq)
		w.cov.paint(lba, end, t)
		t.end = end
		w.pending++
		w.mu.Unlock()
		return nil
	}

	// The item forwards straight out of the journal's stable copy — the
	// single copy Append already made is the only one on the early-ack
	// path. The journal keeps those bytes alive until Complete, which the
	// applier only calls after the backend write.
	item := &wbItem{lba: lba, end: end, seqs: []uint64{seq}, data: stable}
	if tc, ok := obs.Current(); ok {
		item.tctx = tc
	}
	// Arrival-order for conflicts: wait for the current last writer of every
	// block in the extent. Older overlapping writes are ordered before those
	// owners block by block, so transitivity orders them before this write
	// too — no edge needed.
	for _, o := range w.cov.paint(lba, end, item) {
		item.ndeps++
		o.dependents = append(o.dependents, item)
	}
	w.items++
	w.pending++
	w.tail = item
	if item.ndeps == 0 {
		w.ready = append(w.ready, item)
	}
	w.mu.Unlock()
	w.cond.Broadcast()
	return nil
}

// ReadAt waits for pending writes overlapping the extent (and for any
// backend recovery in progress), then reads from the backend.
func (w *WriteBackDevice) ReadAt(p []byte, lba uint64) error {
	if len(p) == 0 || len(p)%w.bs != 0 {
		return blockdev.ErrBadLength
	}
	end := lba + uint64(len(p)/w.bs)
	w.mu.Lock()
	for (w.cov.overlaps(lba, end) || w.degraded) && !w.closed {
		w.cond.Wait()
	}
	closed := w.closed
	dev := w.dev
	w.mu.Unlock()
	if closed {
		return blockdev.ErrClosed
	}
	return dev.ReadAt(p, lba)
}

// Flush drains all journaled writes and flushes the backend.
func (w *WriteBackDevice) Flush() error {
	w.drain()
	w.mu.Lock()
	err := w.applyErr
	dev := w.dev
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return dev.Flush()
}

// Close drains outstanding writes, stops the appliers, and closes the
// backend.
func (w *WriteBackDevice) Close() error {
	w.drain()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	w.wg.Wait()
	w.recWG.Wait()
	w.mu.Lock()
	dev := w.dev
	w.mu.Unlock()
	return dev.Close()
}

// Kill simulates the middle-box process dying mid-flight: the journal
// freezes first (no write acked or marked applied after this instant — the
// durability cut line recovery reasons from), then the appliers stop
// without draining and the backend session drops. Writes the appliers had
// already issued may still land on the backend; replaying their journal
// records is idempotent, so that race is harmless.
func (w *WriteBackDevice) Kill() {
	w.journal.Kill()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	w.wg.Wait()
	w.recWG.Wait()
	w.mu.Lock()
	dev := w.dev
	w.mu.Unlock()
	_ = dev.Close()
}

// Pending returns the number of journaled-but-unapplied writes. Coalesced
// writes count individually until their merged apply lands.
func (w *WriteBackDevice) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// Degraded reports whether the device is currently riding out a backend
// outage on the journal.
func (w *WriteBackDevice) Degraded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.degraded
}

// drain blocks until every pending write has been applied and any backend
// recovery has settled (swapped in a new device or turned terminal) — all
// dispatched items can complete as failed while the reopen is still in
// flight, so items alone is not the full picture.
func (w *WriteBackDevice) drain() {
	w.mu.Lock()
	for (w.items > 0 || w.degraded) && !w.closed {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// applyLoop is one of the parallel appliers: it pops ready items, writes
// them to the backend, and unblocks their dependents. While the device is
// degraded the appliers park; ready items wait for the recovered backend.
func (w *WriteBackDevice) applyLoop() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		for (len(w.ready) == 0 || w.degraded) && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		item := w.ready[0]
		w.ready[0] = nil
		w.ready = w.ready[1:]
		item.dispatched = true
		if w.tail == item {
			w.tail = nil
		}
		w.inflight++
		dev := w.dev
		w.mu.Unlock()

		// Re-bind the admitting command's trace context: the forward leg runs
		// after the early ack, on an applier goroutine, but its spans should
		// parent under the command's service span.
		prev, had := obs.Bind(item.tctx)
		err := dev.WriteAt(item.data, item.lba)
		for try := 1; err != nil && try < w.maxTries; try++ {
			err = dev.WriteAt(item.data, item.lba)
		}
		obs.Restore(prev, had)
		for _, seq := range item.seqs {
			w.journal.Complete(seq, err)
		}

		w.mu.Lock()
		w.cov.clearOwned(item)
		w.items--
		w.inflight--
		w.pending -= len(item.seqs)
		for _, d := range item.dependents {
			d.ndeps--
			if d.ndeps == 0 {
				w.ready = append(w.ready, d)
			}
		}
		if err != nil {
			if w.rec.Reopen == nil {
				if w.applyErr == nil {
					w.applyErr = err
				}
			} else if !w.degraded && w.applyErr == nil && !w.closed {
				// Backend declared lost: park the pipeline and recover.
				w.degraded = true
				w.recWG.Add(1)
				go w.recoverBackend()
			}
		}
		w.mu.Unlock()
		item.release()
		w.cond.Broadcast()
	}
}

// recoverBackend runs once per outage: it waits for in-flight applies to
// settle (so the journal is the complete picture of unapplied data), reopens
// the backend with capped backoff, replays failed entries in sequence order,
// and swaps the new device in. On exhaustion it fails the parked pipeline
// terminally.
func (w *WriteBackDevice) recoverBackend() {
	defer w.recWG.Done()
	w.mu.Lock()
	for w.inflight > 0 && !w.closed {
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return
	}
	old := w.dev
	w.mu.Unlock()
	_ = old.Close() // dead session; release its goroutines

	var lastErr error
	for attempt := 0; attempt < w.rec.MaxReopens; attempt++ {
		if attempt > 0 {
			time.Sleep(w.backoff.Delay(attempt - 1))
		}
		dev, err := w.rec.Reopen()
		if err != nil {
			lastErr = err
			continue
		}
		if err := w.replay(dev); err != nil {
			lastErr = err
			_ = dev.Close()
			continue
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			_ = dev.Close()
			return
		}
		w.dev = dev
		w.degraded = false
		w.mu.Unlock()
		w.cond.Broadcast()
		obs.Default().Eventf("writeback", "backend recovered after %d reopen attempt(s); journal replayed", attempt+1)
		return
	}

	terr := fmt.Errorf("middlebox: backend recovery failed after %d attempts: %w", w.rec.MaxReopens, lastErr)
	obs.Default().Eventf("writeback", "%v", terr)
	w.mu.Lock()
	if w.applyErr == nil {
		w.applyErr = terr
	}
	w.failParked(terr)
	w.degraded = false
	w.mu.Unlock()
	w.cond.Broadcast()
}

// replay pushes every StateFailed journal entry to dev in sequence order and
// reclaims its bytes by re-completing it. StateAcked entries stay journaled:
// they belong to parked items the appliers re-dispatch after the swap, and
// the dependency graph already orders them after every overlapping failed
// write (an item only dispatches once its overlapping predecessors applied,
// so a failed entry is always older than a parked one on the same blocks).
func (w *WriteBackDevice) replay(dev blockdev.Device) error {
	for _, e := range w.journal.Unapplied() {
		if e.State != StateFailed {
			continue
		}
		if err := dev.WriteAt(e.Data, e.LBA); err != nil {
			return fmt.Errorf("middlebox: replay seq %d (lba %d): %w", e.Seq, e.LBA, err)
		}
		w.journal.Complete(e.Seq, nil) // reclaims the failed entry's bytes
	}
	return nil
}

// failParked completes every undispatched item with err after recovery is
// exhausted, so drains terminate and the journal records each early-acked
// write that never reached the backend. Caller holds w.mu; inflight is zero.
func (w *WriteBackDevice) failParked(err error) {
	queue := append([]*wbItem(nil), w.ready...)
	seen := make(map[*wbItem]bool, len(queue))
	for _, it := range queue {
		seen[it] = true
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, d := range it.dependents {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
		for _, seq := range it.seqs {
			w.journal.Complete(seq, err)
		}
		w.cov.clearOwned(it)
		w.items--
		w.pending -= len(it.seqs)
		it.release()
	}
	w.ready = w.ready[:0]
	w.tail = nil
}

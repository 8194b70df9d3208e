package middlebox

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/bufpool"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/xerr"
)

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

// The recovery budget of a device with a reopen path: an item's apply is
// tried maxApplyTries times before the backend is declared lost (a refusal
// classed xerr.Overload is not a loss; see retry); an outage
// gets maxReopens reopen attempts, the n-th after a jittered backoff in
// [d/2, d) with d = min(2ms·2ⁿ, 100ms). When the reopens are spent the
// device fails terminally: parked writes complete with the terminal error
// and the journal records each as a failure.
const (
	maxApplyTries     = 2
	maxReopens        = 4
	reopenBackoffBase = 2 * time.Millisecond
	reopenBackoffCap  = 100 * time.Millisecond
)

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
// With a reopen path, a backend loss parks the pipeline instead of
// sticking: new writes keep early-acking into the journal (the NVRAM absorbs
// the outage), a recovery goroutine reopens the backend and replays failed
// entries in sequence order, and the parked items then drain against the new
// device — their dependency edges already order them after every overlapping
// replayed write.
type WriteBackDevice struct {
	dev         blockdev.Device // current backend; swapped during recovery (under mu)
	bs          int             // backend geometry, fixed across reopens
	nblocks     uint64
	journal     *Journal
	reopen      func() (blockdev.Device, error) // nil: the first failure sticks
	maxTries    int
	backoff     *faults.Backoff // paces reopens and retries of a busy backend
	maxCoalesce int             // adjacent-merge cap in bytes (one wire burst)

	mu       sync.Mutex
	cond     *sync.Cond
	cov      coverage
	ready    []*wbItem // ready[readyAt:]: ndeps==0, not yet dispatched, FIFO
	readyAt  int
	tail     *wbItem   // most recently admitted undispatched item, if any
	free     []*wbItem // completed items kept for reuse (see recycle)
	items    int       // pending applies (admitted, not yet completed)
	inflight int       // dispatched applies not yet completed
	closed   bool
	closing  bool  // Close has begun: a busy backend no longer gets unbounded retries
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
	seq0     [1]uint64 // seqs' first backing array, so a new item is one object
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

// newItem takes an item off the free list, or allocates one. Caller holds
// w.mu.
func (w *WriteBackDevice) newItem() *wbItem {
	n := len(w.free)
	if n == 0 {
		it := new(wbItem)
		it.seqs = it.seq0[:0]
		return it
	}
	it := w.free[n-1]
	w.free[n-1] = nil
	w.free = w.free[:n-1]
	return it
}

// recycle returns a completed item's owned storage to the pool (aliased
// journal storage is the journal's to reclaim on Complete) and the item to
// the free list; seqs and dependents keep their backing arrays. The item
// must be unreachable: out of cov and ready, and its predecessors, whose
// dependents lists name it, complete. Caller holds w.mu.
func (w *WriteBackDevice) recycle(it *wbItem) {
	it.dbuf.Release()
	clear(it.dependents)
	*it = wbItem{seqs: it.seqs[:0], dependents: it.dependents[:0]}
	w.free = append(w.free, it)
}

// pushReady appends it to the ready FIFO. Consumed slots ahead of readyAt
// are reclaimed by sliding the live items down once they are the larger
// part of a full backing array, so a queue that keeps draining reuses its
// capacity instead of allocating.
func (w *WriteBackDevice) pushReady(it *wbItem) {
	if len(w.ready) == cap(w.ready) && w.readyAt > len(w.ready)/2 {
		n := copy(w.ready, w.ready[w.readyAt:])
		clear(w.ready[n:])
		w.ready, w.readyAt = w.ready[:n], 0
	}
	w.ready = append(w.ready, it)
}

// popReady removes the head of the ready FIFO, which must not be empty.
func (w *WriteBackDevice) popReady() *wbItem {
	it := w.ready[w.readyAt]
	w.ready[w.readyAt] = nil
	if w.readyAt++; w.readyAt == len(w.ready) {
		w.ready, w.readyAt = w.ready[:0], 0
	}
	return it
}

var _ blockdev.Device = (*WriteBackDevice)(nil)

// NewWriteBack wraps dev with active-relay write-back semantics using the
// given journal. Without a recovery path, the first backend failure sticks.
func NewWriteBack(dev blockdev.Device, journal *Journal) *WriteBackDevice {
	return NewWriteBackRecovering(dev, journal, nil)
}

// NewWriteBackRecovering wraps dev like NewWriteBack and, when reopen is
// non-nil, arms the recovery path: when a journaled apply keeps failing, the
// device assumes the pseudo-client session is lost, reopens the backend
// through reopen (dial, login, rebuild the service chain), replays the
// journal, and resumes — the split-connection consistency story of Section
// III-B.
func NewWriteBackRecovering(dev blockdev.Device, journal *Journal, reopen func() (blockdev.Device, error)) *WriteBackDevice {
	w := &WriteBackDevice{dev: dev, bs: dev.BlockSize(), nblocks: dev.Blocks(), journal: journal, reopen: reopen, maxTries: 1,
		backoff: faults.NewBackoff(reopenBackoffBase, reopenBackoffCap, 0), maxCoalesce: maxCoalescedBytes}
	if reopen != nil {
		w.maxTries = maxApplyTries
	}
	w.cond = sync.NewCond(&w.mu)
	for i := 0; i < applyParallelism; i++ {
		w.wg.Add(1)
		go w.applyLoop()
	}
	return w
}

// Journal returns the backing journal.
func (w *WriteBackDevice) Journal() *Journal { return w.journal }

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

// BlockSize implements blockdev.Device.
func (w *WriteBackDevice) BlockSize() int { return w.bs }

// Blocks implements blockdev.Device.
func (w *WriteBackDevice) Blocks() uint64 { return w.nblocks }

// WriteAt journals the write and returns without waiting for the backend.
// The data is copied into pooled owned storage before return, so the caller
// may reuse p immediately (the blockdev.Device contract). When the journal
// has no room it falls back to a synchronous write (after draining, to
// preserve ordering) — except while the backend is down, when it waits for
// recovery instead (the journal is the only safe place for the data). Any
// other journal error refuses the write (see Journal.Append).
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
	w.mu.Unlock()

	// Backpressure: when the NVRAM buffer is full, wait for appliers to
	// free space rather than collapsing the pipeline with a full drain —
	// the source then sees ack latency equal to one backend drain
	// interval, exactly the split-connection flow control of the paper.
	seq, stable, err := w.journal.Append(lba, p)
	for err != nil {
		if !noRoom(err) {
			// Not a full buffer: the journal is closed, frozen by a
			// crash-kill that has not reached this device yet, or cannot
			// record at all. Never write around it: recovery replays a
			// frozen journal over whatever a write-through put on the
			// backend after it, and a log that failed an fsync holds
			// nothing a relay may acknowledge against.
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
		w.mu.Unlock()
		return nil
	}

	// The item forwards straight out of the journal's stable copy — the
	// single copy Append already made is the only one on the early-ack
	// path. The journal keeps those bytes alive until Complete, which the
	// applier only calls after the backend write.
	item := w.newItem()
	item.lba, item.end, item.data = lba, end, stable
	item.seqs = append(item.seqs, seq)
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
	w.tail = item
	if item.ndeps == 0 {
		w.pushReady(item)
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
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
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
		for (w.readyAt == len(w.ready) || w.degraded) && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		item := w.popReady()
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
		if err != nil {
			err = w.retry(dev, item, err)
		}
		obs.Restore(prev, had)
		for _, seq := range item.seqs {
			w.journal.Complete(seq, err)
		}

		w.mu.Lock()
		w.cov.clearOwned(item)
		w.items--
		w.inflight--
		for _, d := range item.dependents {
			d.ndeps--
			if d.ndeps == 0 {
				w.pushReady(d)
			}
		}
		if err != nil {
			if w.reopen == nil {
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
		w.recycle(item)
		w.mu.Unlock()
		w.cond.Broadcast()
	}
}

// retry re-forwards an item whose first apply to dev failed with err. A
// refusal classed xerr.Overload means the backend is busy, not lost (a
// replicate box short of its quorum): the item backs off and
// is retried until it lands, the error changes class, or the device starts
// closing. Any other error, and a busy refusal once Close has begun, gets
// maxTries attempts in all, so a backend that stays busy cannot hold Close
// up: the item fails into the recovery path like any lost write.
func (w *WriteBackDevice) retry(dev blockdev.Device, it *wbItem, err error) error {
	for tries, busy := 1, 0; err != nil; err = dev.WriteAt(it.data, it.lba) {
		w.mu.Lock()
		stopping := w.closing || w.closed
		w.mu.Unlock()
		if xerr.Classify(err) != xerr.Overload || stopping {
			if tries >= w.maxTries {
				return err
			}
			tries++
			continue
		}
		time.Sleep(w.backoff.Delay(busy))
		busy++
	}
	return nil
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
	for attempt := 0; attempt < maxReopens; attempt++ {
		if attempt > 0 {
			time.Sleep(w.backoff.Delay(attempt - 1))
		}
		dev, err := w.reopen()
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

	terr := fmt.Errorf("middlebox: backend recovery failed after %d attempts: %w", maxReopens, lastErr)
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
	queue := append([]*wbItem(nil), w.ready[w.readyAt:]...)
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
		w.recycle(it)
	}
	clear(w.ready)
	w.ready, w.readyAt = w.ready[:0], 0
	w.tail = nil
}

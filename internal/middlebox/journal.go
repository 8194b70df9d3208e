// Package middlebox implements StorM's middle-box runtime (Section III-B):
// the packet interception API offered to tenant-defined storage services.
// A Relay terminates the spliced storage connection inside the middle-box
// VM as a pseudo-target, executes intercepted commands against a backend
// device reached through a pseudo-client connection to the next hop, and —
// in active-relay mode — acknowledges writes immediately after journaling
// them to non-volatile memory, hiding service processing and downstream
// forwarding latency from the data source.
//
// Tenant services plug in as blockdev.Device decorators around the backend
// (exactly the "read and write interfaces to the storage service
// processes" the paper describes), so encryption, monitoring, and
// replication compose by nesting.
package middlebox

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/xerr"
)

// ErrJournalFull reports that the non-volatile buffer cannot accept more
// unacknowledged write data; the relay falls back to synchronous completion
// until space frees up. It is classed xerr.Overload: the condition clears
// once the appliers drain, so callers with retry budget should back off and
// retry rather than fail the write.
var ErrJournalFull = xerr.New(xerr.Overload, "middlebox: journal full")

// ErrJournalClosed reports an append against a journal that has been closed
// or crash-killed. Classed xerr.Terminal: no retry against this journal can
// succeed.
var ErrJournalClosed = xerr.New(xerr.Terminal, "middlebox: journal closed")

// EntryState tracks a journaled write through its lifecycle.
type EntryState int

// Journal entry states.
const (
	// StateAcked: the initiator has been acknowledged; the data lives only
	// in the journal.
	StateAcked EntryState = iota + 1
	// StateFailed: the backend rejected the write after acknowledgement.
	StateFailed
)

// Entry is one journaled write. Data is pooled storage owned by the journal
// (with a WAL, the log record's own buffer); it returns to the pool when the
// entry completes successfully (failed entries keep their data for replay).
type Entry struct {
	Seq   uint64
	LBA   uint64
	Data  []byte
	State EntryState

	dbuf *bufpool.Buf
}

// Journal is the middle-box's non-volatile write buffer: a copy of every
// early-acknowledged write is kept until the next hop acknowledges it
// (Section III-B's consistency mechanism for the split connections). It is
// capacity-bounded and optionally durable. Without a WAL (NewJournal) it
// stands in for NVRAM: fast, and lost with the process. With one
// (NewDurableJournal) every append is fsynced to a segmented on-disk log
// before Append returns, so the early-ack contract holds across a
// middle-box crash and a replacement instance replays the log
// (Relay.RecoverFrom). Either way the in-memory entry map mirrors the
// unapplied set for the hot paths: dispatch, drain gates, backend-outage
// replay.
type Journal struct {
	log *wal.Log // nil for the in-memory journal

	mu       sync.Mutex
	capacity int
	used     int
	pending  int
	nextSeq  uint64 // sequence source when log is nil
	entries  map[uint64]*Entry
	failed   int // applies that failed after early acknowledgement
	closed   bool

	usedGauge *obs.Gauge
}

// NewJournal creates an in-memory journal holding up to capacity bytes of
// unacknowledged write data (0 means unbounded).
func NewJournal(capacity int) *Journal {
	return &Journal{
		capacity:  capacity,
		entries:   make(map[uint64]*Entry),
		usedGauge: obs.Default().Gauge("journal.used_bytes"),
	}
}

// NewDurableJournal creates a journal backed by a fresh WAL in dir. Meta
// identifies the journal to recovery (the relay records the backend volume
// and next hop). Capacity bounds in-flight bytes (0 means unbounded); opts
// tunes segment size and the group-commit fsync window.
func NewDurableJournal(dir string, meta wal.Meta, capacity int, opts wal.Options) (*Journal, error) {
	log, err := wal.Create(dir, meta, opts)
	if err != nil {
		return nil, err
	}
	j := NewJournal(capacity)
	j.log = log
	return j, nil
}

// Append records a write before it is acknowledged to the source, copying
// the data once into journal-owned storage: with a WAL, that copy is the
// log record itself (wal.Log.AppendRetain). The returned slice is that
// stable copy: callers may alias it (read-only) until they Complete the
// sequence — the relay's write-back pipeline forwards straight out of it.
// With a WAL, Append returns only once the record is durable (possibly
// batched with concurrent appends by the group-commit window). Neither
// Append nor Complete holds the journal mutex across a WAL call, so
// completes and drain polls never stall behind an append's fsync.
//
// Its errors are a closed list:
//   - ErrJournalFull (capacity) or wal.ErrWALFull (log disk space): no room
//     now; space frees as entries complete (see noRoom);
//   - ErrJournalClosed: the journal was closed or crash-killed;
//   - anything else, classed xerr.Terminal: the WAL could not record the
//     write (a failed fsync, a closed log), and refuses every later one.
func (j *Journal) Append(lba uint64, data []byte) (uint64, []byte, error) {
	n := len(data)
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, nil, ErrJournalClosed
	}
	if j.capacity > 0 && j.used+n > j.capacity {
		used := j.used
		j.mu.Unlock()
		obs.Default().Eventf("journal", "full: %d bytes used of %d, falling back to write-through", used, j.capacity)
		return 0, nil, fmt.Errorf("%w: %d bytes used of %d", ErrJournalFull, used, j.capacity)
	}
	// Reserve the bytes first, so concurrent appends cannot oversubscribe
	// the capacity while this one is out fsyncing.
	j.used += n
	j.usedGauge.Add(int64(n))
	var (
		seq    uint64
		dbuf   *bufpool.Buf
		stable []byte
	)
	if j.log == nil {
		j.nextSeq++
		seq = j.nextSeq
		dbuf = bufpool.Get(n)
		stable = dbuf.B
		copy(stable, data)
	} else {
		j.mu.Unlock()
		var err error
		seq, dbuf, stable, err = j.log.AppendRetain(lba, data)
		j.mu.Lock()
		if err != nil || j.closed {
			j.used -= n
			j.usedGauge.Add(-int64(n))
			closed := j.closed
			j.mu.Unlock()
			dbuf.Release()
			switch {
			case closed:
				// Killed while the append was in flight: the record may be on
				// disk, but the source was never acked — recovery replaying it
				// is harmless (idempotent), acking here would be wrong.
				return 0, nil, ErrJournalClosed
			case errors.Is(err, wal.ErrWALFull):
				return 0, nil, err
			default:
				return 0, nil, xerr.Wrap(xerr.Terminal, fmt.Errorf("middlebox: journal cannot record: %w", err))
			}
		}
	}
	e := &Entry{Seq: seq, LBA: lba, Data: stable, State: StateAcked, dbuf: dbuf}
	j.entries[seq] = e
	j.pending++
	j.mu.Unlock()
	return seq, e.Data, nil
}

// noRoom reports whether an Append error only means the journal has no room
// right now — the one refusal a writer may wait out, or write around while
// nothing is in flight. Every other Append error refuses the write.
func noRoom(err error) bool {
	return errors.Is(err, ErrJournalFull) || errors.Is(err, wal.ErrWALFull)
}

// Complete marks the entry applied (applyErr nil) or failed. Success releases
// its space and, with a WAL, writes a buffered commit record — its
// durability is not awaited because losing a commit only costs an idempotent
// replay, never an acknowledged write. The commit is written after the
// journal mutex is released, since the log's mutex may be held across
// another append's fsync, but before Complete returns: the write-back
// applier releases overlapping writes only after that, which is what keeps
// the surviving commits in acknowledged order. A failed entry keeps its
// bytes until a later successful Complete (the replay) reclaims them.
func (j *Journal) Complete(seq uint64, applyErr error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	e, ok := j.entries[seq]
	if !ok {
		j.mu.Unlock()
		return
	}
	if e.State == StateAcked {
		j.pending--
	}
	if applyErr != nil {
		e.State = StateFailed
		j.failed++
		j.mu.Unlock()
		return
	}
	j.used -= len(e.Data)
	j.usedGauge.Add(-int64(len(e.Data)))
	delete(j.entries, seq)
	e.Data = nil
	e.dbuf.Release()
	e.dbuf = nil
	j.mu.Unlock()
	if j.log != nil {
		// ErrClosed: a kill or close overtook this commit; the record is
		// replayed (idempotently) or its log deleted, as for any lost commit.
		if err := j.log.Commit(seq); err != nil && !errors.Is(err, wal.ErrClosed) {
			obs.Default().Eventf("journal", "durable commit seq %d: %v", seq, err)
		}
	}
}

// Unapplied returns a snapshot of every entry whose data has not reached the
// backend — StateAcked (never dispatched) and StateFailed (dispatched, backend
// rejected) alike — sorted by sequence number. Recovery replays this list in
// order; callers must treat the entries as read-only.
func (j *Journal) Unapplied() []*Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*Entry, 0, len(j.entries))
	for _, e := range j.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Pending returns the number of journaled-but-unapplied StateAcked entries.
// It is a counter maintained by Append/Complete, not a scan — drain quiesce
// gates and recovery loops poll it hot.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

// UsedBytes returns the bytes held by unapplied entries.
func (j *Journal) UsedBytes() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.used
}

// clean reports whether every acknowledged write reached the backend: nothing
// unapplied and no failure ever recorded.
func (j *Journal) clean() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries) == 0 && j.failed == 0
}

// shut marks the journal closed, reporting whether this call did so. From
// then on appends fail and completes no-op, so its contents are frozen.
func (j *Journal) shut() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	was := j.closed
	j.closed = true
	return !was
}

// Kill freezes the journal as a middle-box crash would: appends fail with
// ErrJournalClosed and completes no-op. In-memory contents are lost by
// design; a WAL is left on disk exactly as the crash found it, for a
// replacement instance to reopen and replay.
func (j *Journal) Kill() {
	if j.shut() && j.log != nil {
		j.log.Kill()
	}
}

// Close releases the journal. A clean journal's WAL owes recovery nothing
// and its directory is deleted; a dirty one keeps it on disk for replay or
// audit.
func (j *Journal) Close() error {
	if !j.shut() || j.log == nil {
		return nil
	}
	if j.clean() {
		return j.log.Remove()
	}
	return j.log.Close()
}

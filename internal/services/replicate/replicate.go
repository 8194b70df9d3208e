// Package replicate implements the content-addressed replication service:
// a stateful middle-box that intercepts tenant writes, addresses the
// affected chunks by content hash (dedup via internal/cas), and fans each
// update out to N content-addressed backends with per-backend circuit
// breakers, health probes and resync. A write returns nil once
// Config.Quorum backends have applied it and is otherwise refused with the
// retryable ErrNoQuorum; the box keeps no admission queue, since under the
// platform the active relay's write-back journal above it absorbs refusals.
//
// The dispatch queue is WAL-backed (internal/wal): a write is appended to
// the journal before it touches the primary or any backend. The commit
// record is written only once a quorum holds the write and every backend it
// was handed to has applied it or been evicted. A replication box that dies
// mid-dispatch therefore recovers exactly like the relay does — reopen the
// journal, replay the uncommitted records to the primary and every backend,
// and resume — and the replay reaches the backend that was slowest when it
// died.
package replicate

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/xerr"
)

// Errors.
var (
	// ErrKilled reports I/O against a box frozen by Kill.
	ErrKilled = errors.New("replicate: box killed")
	// ErrClosed reports I/O against a closed box.
	ErrClosed = errors.New("replicate: box closed")
	// ErrNoQuorum refuses a write fewer than Config.Quorum backends applied:
	// too few were alive to take it, or the ones it was handed to failed it.
	// Classed Overload, so the caller backs off and retries.
	ErrNoQuorum = xerr.New(xerr.Overload, "replicate: write short of quorum")
)

// DefaultChunkSize is the content-addressing granularity the platform gives
// a box's backend stores.
const DefaultChunkSize = 4096

// Circuit-breaker states, exposed per backend via the
// replicate.<box>.<backend>.breaker_state gauge.
const (
	BreakerClosed   = 0 // backend healthy, taking dispatch
	BreakerHalfOpen = 1 // probe in flight, deciding whether to readmit
	BreakerOpen     = 2 // backend cut off, awaiting a successful probe
)

// Config parameterizes a replication box.
type Config struct {
	// Name labels the box's obs series (replicate.<name>.*) and events —
	// the middle-box instance name in production wiring.
	Name string
	// Quorum is the number of backend acknowledgements a write waits for
	// before it returns nil. 1 ≤ Quorum ≤ len(backends).
	Quorum int
	// WALDir is the dispatch journal directory (required). An existing
	// journal is replayed before the box serves I/O.
	WALDir string
	// ProbeInterval paces the health probe / resync loop over evicted
	// backends. Default 50ms.
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive per-backend failure (or
	// over-deadline apply) count that trips its circuit breaker. Failed
	// applies are retried inline with jittered backoff until the threshold
	// exhausts. Default 3.
	BreakerThreshold int
	// ApplyTimeout, when > 0, treats a backend apply slower than this as a
	// breaker-relevant failure even though it succeeded — the slow-backend
	// brownout detector. Half-open probes must also beat it to close the
	// breaker. 0 disables latency tripping.
	ApplyTimeout time.Duration
	// WALQuota, when set, bounds the dispatch journal's on-disk bytes (see
	// wal.Options.Quota) — the deterministic ENOSPC injection the overload
	// experiments drive WAL-full scenarios with.
	WALQuota wal.Quota
	// Obs receives the box's metrics and events (default obs.Default()).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 50 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	return c
}

// NamedStore pairs a content-addressed backend with a diagnostic name.
type NamedStore struct {
	Name  string
	Store *cas.Store
}

// chunkUpdate is one chunk's post-write content and its content address,
// both fixed by the box so every backend applies identical bytes without
// hashing them again. data belongs to the job.
type chunkUpdate struct {
	slot uint64
	id   cas.ID
	data []byte
}

// job is one journaled write's fan-out unit.
type job struct {
	seq    uint64
	chunks []chunkUpdate
	done   chan struct{} // closed once the writer's answer is known (see decideLocked)
	quorum bool          // the answer: set before done closes, read after

	// Guarded by Box.mu; bit i stands for Box.targets[i].
	acked   uint64 // backends that applied the job
	owed    uint64 // backends it was enqueued to that have neither applied it nor been evicted
	decided bool   // done is closed
}

// Target is one content-addressed backend of the box. It satisfies the
// scrub service's Replica interface, so a scrubber can be pointed straight
// at Box.Targets().
type Target struct {
	box   *Box
	name  string
	bit   uint64 // 1 << index in Box.targets, for job.acked / job.owed
	store *cas.Store
	queue chan *job

	// enq/done count jobs handed to and finished by this target's worker
	// (enq bumped before the channel send, done after the apply or skip),
	// so enq == done means nothing is queued or in flight.
	enq  atomic.Uint64
	done atomic.Uint64

	alive bool // guarded by box.mu

	// slowStreak counts consecutive over-deadline applies; owned by the
	// target's worker goroutine.
	slowStreak int

	gBreaker *obs.Gauge   // breaker_state: BreakerClosed/HalfOpen/Open
	mProbes  *obs.Counter // half-open probe attempts
}

// Name returns the backend's diagnostic name.
func (t *Target) Name() string { return t.name }

// Store exposes the backend's CAS store (stats, verification).
func (t *Target) Store() *cas.Store { return t.store }

// Healthy reports whether the backend is serving.
func (t *Target) Healthy() bool {
	t.box.mu.Lock()
	defer t.box.mu.Unlock()
	return t.alive
}

// ReadChunk reads the backend's content at slot into dst (verified).
func (t *Target) ReadChunk(slot uint64, dst []byte) error {
	return t.store.Read(slot, dst)
}

// WriteChunk is the scrub repair: it force-overwrites the backend's content
// at slot, reaching the stored bytes even when the slot's mapping is
// already correct (the corrupted-chunk case). It repairs only with the
// primary's current content, checked under the write lock: a repair voted
// from reads that a write has since overtaken would put the pre-write
// content back over it, so it is refused and the next pass votes again.
func (t *Target) WriteChunk(slot uint64, data []byte) error {
	b := t.box
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	cur, err := b.snapshotChunk(slot)
	if err != nil {
		return err
	}
	if !bytes.Equal(cur, data) {
		return fmt.Errorf("replicate: repair of %s slot %d refused: not the primary's current content", t.name, slot)
	}
	return t.store.Repair(slot, data)
}

// Box is the replication middle-box device: blockdev.Device over the
// primary, with journaled content-addressed fan-out to the backends.
type Box struct {
	cfg     Config
	primary blockdev.Device
	log     *wal.Log
	slots   uint64 // primary size in chunks
	chunk   int    // chunk bytes, the backend stores'
	bpc     uint64 // blocks per chunk

	mu      sync.Mutex // targets' health, jobs and their ack state, lifecycle flags
	writeMu sync.Mutex // serializes append→apply→snapshot→enqueue
	targets []*Target
	live    int             // targets alive
	jobs    map[uint64]*job // journaled, record not yet committed
	killed  bool
	closed  bool

	backoff *faults.Backoff // jittered spacing for inline apply retries

	stop     chan struct{}
	workerWG sync.WaitGroup
	proberWG sync.WaitGroup

	replayed int

	// killAfter, when non-nil, is consulted after each journal append (and
	// again after the primary apply) with the record's seq and a stage tag;
	// returning true freezes the box at that point, simulating a process
	// death mid-dispatch for the crash-recovery tests.
	killAfter func(seq uint64, stage string) bool

	mDispatch, mDedup, mQuorumMiss, mReplays *obs.Counter
	mBytesLogical, mBytesStored              *obs.Counter
	gAlive                                   *obs.Gauge
}

var _ blockdev.Device = (*Box)(nil)

// Kill-point stage tags consulted through Config's kill hook.
const (
	StageAppended = "appended" // journal record durable, nothing applied
	StagePrimary  = "primary"  // primary updated, backends not enqueued
)

// New builds a replication box over primary with the given backends. The
// backend stores must share one chunk size, a multiple of the primary's
// block size — the box's content-addressing granularity — and each must
// cover the primary. If
// cfg.WALDir holds a journal from a previous life, its uncommitted records
// are replayed — to the primary and to every backend — before the box
// accepts I/O; Replayed reports how many.
func New(cfg Config, primary blockdev.Device, backends []NamedStore) (*Box, error) {
	cfg = cfg.withDefaults()
	if primary == nil {
		return nil, errors.New("replicate: primary device required")
	}
	if cfg.WALDir == "" {
		return nil, errors.New("replicate: WALDir required (the dispatch queue is journal-backed)")
	}
	if len(backends) == 0 {
		return nil, errors.New("replicate: at least one backend required")
	}
	if len(backends) > 64 {
		return nil, fmt.Errorf("replicate: %d backends, at most 64", len(backends))
	}
	if cfg.Quorum < 1 || cfg.Quorum > len(backends) {
		return nil, fmt.Errorf("replicate: quorum %d outside [1,%d]", cfg.Quorum, len(backends))
	}
	bs, chunk := primary.BlockSize(), backends[0].Store.ChunkSize()
	if chunk%bs != 0 {
		return nil, fmt.Errorf("replicate: chunk size %d not a multiple of block size %d", chunk, bs)
	}
	bpc := uint64(chunk / bs)
	slots := (primary.Blocks() + bpc - 1) / bpc
	b := &Box{
		cfg:     cfg,
		primary: primary,
		slots:   slots,
		chunk:   chunk,
		bpc:     bpc,
		jobs:    make(map[uint64]*job),
		stop:    make(chan struct{}),
		backoff: faults.NewBackoff(time.Millisecond, 50*time.Millisecond, 1),
	}
	for i, nb := range backends {
		if nb.Store.ChunkSize() != chunk {
			return nil, fmt.Errorf("replicate: backend %q chunk size %d, backend %q's is %d", nb.Name, nb.Store.ChunkSize(), backends[0].Name, chunk)
		}
		if nb.Store.Slots() < slots {
			return nil, fmt.Errorf("replicate: backend %q has %d slots, primary needs %d", nb.Name, nb.Store.Slots(), slots)
		}
		b.targets = append(b.targets, &Target{
			box:   b,
			name:  nb.Name,
			bit:   1 << i,
			store: nb.Store,
			queue: make(chan *job, 256),
			alive: true,
		})
	}
	b.live = len(b.targets)
	b.initMetrics()

	walOpts := wal.Options{Quota: cfg.WALQuota}
	log, rec, err := wal.Open(cfg.WALDir, walOpts)
	switch {
	case errors.Is(err, wal.ErrNoSegments):
		log, err = wal.Create(cfg.WALDir, wal.Meta{Attrs: map[string]string{"service": "replicate", "box": cfg.Name}}, walOpts)
		if err != nil {
			return nil, fmt.Errorf("replicate: create journal: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("replicate: open journal: %w", err)
	default:
		b.log = log
		if err := b.replay(rec); err != nil {
			_ = log.Close()
			return nil, err
		}
	}
	b.log = log

	for _, t := range b.targets {
		b.workerWG.Add(1)
		go b.worker(t)
	}
	b.proberWG.Add(1)
	go b.prober()
	b.gAlive.Set(int64(len(b.targets)))
	return b, nil
}

// replay applies a recovered journal's uncommitted records — in sequence
// order to the primary, then chunk-aligned to every backend — and commits
// them. Replay is synchronous and unconditional on all backends (not just
// a quorum): recovery is the moment to reconverge stragglers.
func (b *Box) replay(rec *wal.Recovery) error {
	for _, r := range rec.Records {
		if err := b.primary.WriteAt(r.Data, r.LBA); err != nil {
			return fmt.Errorf("replicate: replay seq %d to primary: %w", r.Seq, err)
		}
	}
	// Snapshot each touched chunk once, after all records landed.
	touched := make(map[uint64]bool)
	for _, r := range rec.Records {
		first := r.LBA / b.bpc
		last := (r.LBA + uint64(len(r.Data))/uint64(b.primary.BlockSize()) - 1) / b.bpc
		for s := first; s <= last; s++ {
			touched[s] = true
		}
	}
	for slot := range touched {
		data, err := b.snapshotChunk(slot)
		if err != nil {
			return err
		}
		id := cas.Sum(data)
		for _, t := range b.targets {
			if _, err := t.store.WriteID(slot, id, data); err != nil {
				return fmt.Errorf("replicate: replay slot %d to %s: %w", slot, t.name, err)
			}
		}
	}
	for _, r := range rec.Records {
		if err := b.log.Commit(r.Seq); err != nil {
			return fmt.Errorf("replicate: commit replayed seq %d: %w", r.Seq, err)
		}
	}
	b.replayed = len(rec.Records)
	if b.replayed > 0 {
		b.mReplays.Add(int64(b.replayed))
		b.cfg.Obs.Eventf("replicate", "box %s replayed %d journaled writes across %d chunks", b.cfg.Name, b.replayed, len(touched))
	}
	return nil
}

// Replayed reports how many journal records the box replayed at open.
func (b *Box) Replayed() int { return b.replayed }

// Drained reports whether every dispatched job has been fully processed:
// every record committed, nothing queued, nothing in flight on any backend.
// Benches and tests use it to wait for full (not just quorum) convergence.
func (b *Box) Drained() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.jobs) != 0 {
		return false
	}
	for _, t := range b.targets {
		if t.enq.Load() != t.done.Load() {
			return false
		}
	}
	return true
}

// Targets returns the box's backends (for scrub wiring and tests).
func (b *Box) Targets() []*Target { return b.targets }

func (b *Box) initMetrics() {
	p := "replicate." + b.cfg.Name + "."
	r := b.cfg.Obs
	b.mDispatch = r.Counter(p + "dispatches")
	b.mDedup = r.Counter(p + "dedup_hits")
	b.mQuorumMiss = r.Counter(p + "quorum_misses")
	b.mReplays = r.Counter(p + "replays")
	b.mBytesLogical = r.Counter(p + "bytes_logical")
	b.mBytesStored = r.Counter(p + "bytes_stored")
	b.gAlive = r.Gauge(p + "backends_alive")
	for _, t := range b.targets {
		t.gBreaker = r.Gauge(p + t.name + ".breaker_state")
		t.mProbes = r.Counter(p + t.name + ".breaker_probes")
	}
}

// BlockSize implements blockdev.Device.
func (b *Box) BlockSize() int { return b.primary.BlockSize() }

// Blocks implements blockdev.Device.
func (b *Box) Blocks() uint64 { return b.primary.Blocks() }

// ReadAt serves reads from the primary.
func (b *Box) ReadAt(p []byte, lba uint64) error {
	if err := b.ioErr(); err != nil {
		return err
	}
	return b.primary.ReadAt(p, lba)
}

func (b *Box) ioErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.killed {
		return ErrKilled
	}
	if b.closed {
		return ErrClosed
	}
	return nil
}

// snapshotChunk reads chunk slot's full content from the primary. The tail
// chunk of a primary whose size is not chunk-aligned is zero-padded.
func (b *Box) snapshotChunk(slot uint64) ([]byte, error) {
	bs := uint64(b.primary.BlockSize())
	data := make([]byte, b.chunk)
	first := slot * b.bpc
	n := b.bpc
	if rem := b.primary.Blocks() - first; rem < n {
		n = rem
	}
	if err := b.primary.ReadAt(data[:n*bs], first); err != nil {
		return nil, fmt.Errorf("replicate: snapshot chunk %d: %w", slot, err)
	}
	return data, nil
}

// WriteAt journals the write, applies it to the primary, and fans the
// affected chunks' new content out to every live backend. It returns nil
// once Quorum backends have applied it, and ErrNoQuorum when fewer than
// Quorum are alive (before the journal and the primary are touched) or the
// backends it was handed to fail it below quorum. The journal record stays
// uncommitted until a quorum holds the write and every backend it was
// handed to has applied it or been evicted (the resync prober catches an
// evicted one up), so a crash before that replays the record.
func (b *Box) WriteAt(p []byte, lba uint64) error {
	if err := b.ioErr(); err != nil {
		return err
	}
	bs := uint64(b.BlockSize())
	if len(p) == 0 || uint64(len(p))%bs != 0 {
		return blockdev.ErrBadLength
	}
	nblocks := uint64(len(p)) / bs
	if lba+nblocks > b.Blocks() {
		return blockdev.ErrOutOfRange
	}
	b.mu.Lock()
	live := b.live
	b.mu.Unlock()
	if live < b.cfg.Quorum {
		b.mQuorumMiss.Inc()
		return fmt.Errorf("%w: %d of %d backends alive", ErrNoQuorum, live, len(b.targets))
	}

	first := lba / b.bpc
	last := (lba + nblocks - 1) / b.bpc
	j := &job{
		chunks: make([]chunkUpdate, last-first+1),
		done:   make(chan struct{}),
	}
	// A chunk the write covers entirely will hold exactly p's bytes, so its
	// content and ID are known here, before the lock and without reading
	// the primary back. The bytes are copied because the job outlives this
	// call when it returns at quorum or refused, and the caller recycles p.
	if full, end := (lba+b.bpc-1)/b.bpc, (lba+nblocks)/b.bpc; full < end {
		own := append([]byte(nil), p[(full*b.bpc-lba)*bs:(end*b.bpc-lba)*bs]...)
		for slot := full; slot < end; slot++ {
			data := own[:b.chunk:b.chunk]
			own = own[b.chunk:]
			j.chunks[slot-first] = chunkUpdate{slot: slot, id: cas.Sum(data), data: data}
		}
	}

	b.writeMu.Lock()
	seq, err := b.log.Append(lba, p)
	if err != nil {
		b.writeMu.Unlock()
		if ioErr := b.ioErr(); errors.Is(err, wal.ErrClosed) && ioErr != nil {
			return ioErr
		}
		return fmt.Errorf("replicate: journal append: %w", err)
	}
	j.seq = seq
	if b.killAfter != nil && b.killAfter(seq, StageAppended) {
		b.killUnlock()
		return ErrKilled
	}
	if err := b.primary.WriteAt(p, lba); err != nil {
		b.abandon(seq)
		b.writeMu.Unlock()
		return err
	}
	if b.killAfter != nil && b.killAfter(seq, StagePrimary) {
		b.killUnlock()
		return ErrKilled
	}
	// A partly covered head or tail chunk (and the image's unaligned tail
	// chunk) mixes p with what the primary held: read those back.
	for i := range j.chunks {
		cu := &j.chunks[i]
		if cu.data != nil {
			continue
		}
		cu.slot = first + uint64(i)
		if cu.data, err = b.snapshotChunk(cu.slot); err != nil {
			b.abandon(seq)
			b.writeMu.Unlock()
			return err
		}
		cu.id = cas.Sum(cu.data)
	}

	b.mu.Lock()
	for _, t := range b.targets {
		if t.alive {
			j.owed |= t.bit
		}
	}
	owed := j.owed
	b.jobs[seq] = j
	b.decideLocked(j) // no backend alive since the check: refused at once
	b.mu.Unlock()
	for _, t := range b.targets {
		if owed&t.bit == 0 {
			continue
		}
		t.enq.Add(1)
		select { // stop cannot close here: Close and Kill take writeMu
		case t.queue <- j:
		default:
			// The backend's queue is full: it can't keep up with the write
			// rate. Cut it off (breaker opens) instead of blocking the write
			// path behind it — resync reconverges it once it recovers.
			b.evict(t, xerr.Errorf(xerr.Overload, "replicate: backend %s dispatch queue full", t.name))
			t.done.Add(1)
		}
	}
	b.writeMu.Unlock()

	b.mDispatch.Inc()
	b.mBytesLogical.Add(int64(len(p)))

	select {
	case <-j.done:
	case <-b.stop:
		return b.ioErr()
	}
	if !j.quorum {
		b.mQuorumMiss.Inc()
		return fmt.Errorf("%w: fewer than %d backends applied it", ErrNoQuorum, b.cfg.Quorum)
	}
	return nil
}

// abandon commits the journal record of a write that failed after its
// append: the caller sees the error and nothing was acknowledged, so replay
// owes it nothing, and an uncommitted record would pin its segment forever.
func (b *Box) abandon(seq uint64) {
	b.mu.Lock()
	b.commitLocked(seq)
	b.mu.Unlock()
}

// commitLocked marks seq's journal record applied, unless the box is frozen
// or shut (the record then waits for the successor's replay). Caller holds
// b.mu, which orders it against Kill and Close.
func (b *Box) commitLocked(seq uint64) {
	if !b.killed && !b.closed {
		_ = b.log.Commit(seq) // fails only on a dead journal, where replay redoes the write
	}
}

// worker drains one backend's dispatch queue in order.
func (b *Box) worker(t *Target) {
	defer b.workerWG.Done()
	for {
		select {
		case <-b.stop:
			return
		case j := <-t.queue:
			b.mu.Lock()
			owed := j.owed&t.bit != 0
			b.mu.Unlock()
			if !owed {
				t.done.Add(1) // evicted with j queued; resync reconverges this backend
				continue
			}
			start := time.Now()
			err := b.applyJob(t, j)
			elapsed := time.Since(start)
			if err != nil {
				// Inline retry budget: BreakerThreshold consecutive failed
				// attempts (jitter-backed) before the breaker trips. Errors
				// classed terminal or exhausted skip the budget — retrying
				// a full or closed store can't help.
				for attempt := 0; attempt+1 < b.cfg.BreakerThreshold && err != nil && xerr.Classify(err) != xerr.Exhausted && !xerr.IsTerminal(err); attempt++ {
					time.Sleep(b.backoff.Delay(attempt))
					err = b.applyJob(t, j)
				}
				if err != nil {
					b.evict(t, err)
					t.done.Add(1)
					continue
				}
			}
			b.mu.Lock()
			b.settleLocked(j, t, true)
			b.mu.Unlock()
			if b.cfg.ApplyTimeout > 0 && elapsed > b.cfg.ApplyTimeout {
				t.slowStreak++
				if t.slowStreak >= b.cfg.BreakerThreshold {
					// The apply landed and is acked — but the backend is
					// consistently over deadline: open its breaker so the
					// healthy path stops paying for it.
					streak := t.slowStreak
					t.slowStreak = 0
					b.evict(t, xerr.Errorf(xerr.Overload,
						"replicate: backend %s slow: %d consecutive applies over %v (last %v)",
						t.name, streak, b.cfg.ApplyTimeout, elapsed))
				}
			} else {
				t.slowStreak = 0
			}
			t.done.Add(1)
		}
	}
}

// applyJob writes the job's chunks into the target's CAS store.
func (b *Box) applyJob(t *Target, j *job) error {
	for _, cu := range j.chunks {
		dup, err := t.store.WriteID(cu.slot, cu.id, cu.data)
		if err != nil {
			return err
		}
		if dup {
			b.mDedup.Inc()
		} else {
			b.mBytesStored.Add(int64(len(cu.data)))
		}
	}
	return nil
}

// settleLocked records that backend t is finished with j: it applied the
// job, or was evicted owing it (resync owns its content from there).
// Caller holds b.mu.
func (b *Box) settleLocked(j *job, t *Target, applied bool) {
	if b.jobs[j.seq] != j {
		return // already committed
	}
	if applied {
		j.acked |= t.bit
	}
	j.owed &^= t.bit
	b.decideLocked(j)
}

// decideLocked answers j's writer, once: nil at Quorum acks, a refusal when
// no backend owes the job and fewer applied it. The journal record commits
// when a quorum holds the job and no backend owes it, so a crash before
// that replays it to the backend it had not reached. Caller holds b.mu.
func (b *Box) decideLocked(j *job) {
	quorum := bits.OnesCount64(j.acked) >= b.cfg.Quorum
	if !j.decided && (quorum || j.owed == 0) {
		j.decided, j.quorum = true, quorum
		close(j.done)
	}
	if quorum && j.owed == 0 {
		delete(b.jobs, j.seq)
		b.commitLocked(j.seq)
	}
}

// evict marks a backend unhealthy, opens its circuit breaker, and settles
// every job it still owes in the same critical section — so no later write,
// which will not be handed to it, can commit ahead of them.
func (b *Box) evict(t *Target, err error) {
	b.mu.Lock()
	already := !t.alive
	if !already {
		t.alive = false
		b.live--
	}
	for _, j := range b.jobs {
		if j.owed&t.bit != 0 {
			b.settleLocked(j, t, false)
		}
	}
	live := b.live
	b.mu.Unlock()
	if !already {
		b.gAlive.Set(int64(live))
		t.gBreaker.Set(BreakerOpen)
		b.cfg.Obs.Eventf("replicate", "box %s breaker open for backend %s (%s): %v",
			b.cfg.Name, t.name, xerr.Classify(err), err)
	}
}

// BreakerOpen reports whether any backend's breaker is open or half-open —
// the signal the scrubber pauses on and the orchestrator surfaces.
func (b *Box) BreakerOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, t := range b.targets {
		if !t.alive {
			return true
		}
	}
	return false
}

// prober periodically resyncs evicted backends from the primary and
// re-admits them; a re-admitted backend retro-acks every uncommitted job
// (its content now includes them), which can push a stalled write over
// quorum.
func (b *Box) prober() {
	defer b.proberWG.Done()
	tick := time.NewTicker(b.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-tick.C:
			b.Probe()
		}
	}
}

// Probe runs the half-open cycle over every open breaker: a cheap
// single-chunk probe (outside the write lock) decides whether the backend
// is worth resyncing, and a successful resync closes the breaker and
// re-admits it. Returns the number re-admitted. Tests drive it directly.
func (b *Box) Probe() int {
	b.mu.Lock()
	var dead []*Target
	for _, t := range b.targets {
		if !t.alive {
			dead = append(dead, t)
		}
	}
	b.mu.Unlock()
	n := 0
	for _, t := range dead {
		if t.enq.Load() != t.done.Load() {
			// Its worker is still inside a job from before the eviction;
			// finished after a resync, that apply would put stale content
			// over fresh (and until then it holds the store's lock).
			continue
		}
		t.gBreaker.Set(BreakerHalfOpen)
		if !b.probeTarget(t) {
			t.gBreaker.Set(BreakerOpen)
			continue
		}
		if b.resync(t) {
			n++
		} else {
			t.gBreaker.Set(BreakerOpen)
		}
	}
	return n
}

// probeTarget is the half-open trial: one chunk written to the dead backend
// without the write lock, judged against ApplyTimeout. A backend that fails
// (or crawls through) the probe keeps its breaker open without the box
// paying for a full resync behind writeMu.
func (b *Box) probeTarget(t *Target) bool {
	t.mProbes.Inc()
	data, err := b.snapshotChunk(0)
	if err != nil {
		return false
	}
	start := time.Now()
	if _, err := t.store.Write(0, data); err != nil {
		return false
	}
	return b.cfg.ApplyTimeout <= 0 || time.Since(start) <= b.cfg.ApplyTimeout
}

// resync reconverges one backend to the primary's content chunk by chunk
// (skipping chunks whose content hash already matches), then re-admits it.
// The write lock is held throughout so the backend rejoins exactly at a
// write boundary.
func (b *Box) resync(t *Target) bool {
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	for slot := uint64(0); slot < b.slots; slot++ {
		data, err := b.snapshotChunk(slot)
		if err != nil {
			return false
		}
		id := cas.Sum(data)
		if t.store.IDAt(slot) == id {
			continue
		}
		if _, err := t.store.WriteID(slot, id, data); err != nil {
			return false
		}
	}
	b.mu.Lock()
	if !t.alive {
		t.alive = true
		b.live++
	}
	// The backend now holds everything the primary does, every journaled
	// write included.
	for _, j := range b.jobs {
		b.settleLocked(j, t, true)
	}
	live := b.live
	b.mu.Unlock()
	b.gAlive.Set(int64(live))
	t.gBreaker.Set(BreakerClosed)
	b.cfg.Obs.Eventf("replicate", "box %s breaker closed: backend %s readmitted after resync", b.cfg.Name, t.name)
	return true
}

// Flush syncs the primary and the journal.
func (b *Box) Flush() error {
	if err := b.ioErr(); err != nil {
		return err
	}
	if err := b.primary.Flush(); err != nil {
		return err
	}
	return b.log.Sync()
}

// freezeLocked marks the box killed and freezes the journal. Callers hold
// writeMu. Killing an already-closed box (a reconnect built a successor
// before the relay crashed) only marks it: the stop channel is closed and
// the journal released.
func (b *Box) freezeLocked() {
	b.mu.Lock()
	if b.killed || b.closed {
		b.killed = true
		b.mu.Unlock()
		return
	}
	b.killed = true
	b.mu.Unlock()
	close(b.stop)
	b.log.Kill()
}

// Kill freezes the box without flushing — the crash-test half of the
// kill/replay cycle (the relay's Relay.Kill calls it for replicate
// services in its chain). The journal directory survives for the next New.
func (b *Box) Kill() {
	b.writeMu.Lock()
	b.killUnlock()
}

// killUnlock freezes the box and waits out its dispatch workers and prober:
// an apply they had started may still land, but none lands after Kill
// returns, so a successor's replay is the last writer. Callers hold
// writeMu; killUnlock releases it before it waits, as Close does, because
// a prober mid-resync needs writeMu to finish.
func (b *Box) killUnlock() {
	b.freezeLocked()
	b.writeMu.Unlock()
	b.workerWG.Wait()
	b.proberWG.Wait()
}

// Killed reports whether the box was frozen by Kill.
func (b *Box) Killed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.killed
}

// Close shuts the box down cleanly: stop dispatch, close the journal
// (leaving it for a later Open) and the primary. Backend stores are NOT
// closed — their lifetime belongs to whoever attached them.
func (b *Box) Close() error {
	b.writeMu.Lock()
	b.mu.Lock()
	if b.closed || b.killed {
		b.mu.Unlock()
		b.writeMu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.writeMu.Unlock()
	b.workerWG.Wait()
	b.proberWG.Wait()
	err := b.log.Close()
	if cerr := b.primary.Close(); err == nil {
		err = cerr
	}
	return err
}

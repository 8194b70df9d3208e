// Package replicate implements the content-addressed replication service:
// a stateful middle-box that intercepts tenant writes, addresses the
// affected chunks by content hash (dedup via internal/cas), and fans each
// update out to N content-addressed backends with per-backend health
// probes, hedged waits, and quorum acknowledgement.
//
// The dispatch queue is WAL-backed (internal/wal): a write is appended to
// the journal before it touches the primary or any backend. A quorum of
// backend acknowledgements releases the writer; the commit record is
// written only once every backend the write was handed to has applied it
// or been evicted. A replication box that dies mid-dispatch therefore
// recovers exactly like the relay does — reopen the journal, replay the
// uncommitted records to the primary and every backend, and resume — and
// the replay reaches the backend that was slowest when it died.
package replicate

import (
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
	// ErrBusy reports a write refused by admission control: the pending
	// dispatch queue crossed its high watermark and has not yet drained back
	// below the low one. Classed Overload — the iSCSI front maps it to SCSI
	// BUSY and the initiator retries.
	ErrBusy = xerr.New(xerr.Overload, "replicate: dispatch queue over high watermark")
	// ErrDegraded reports a write fast-failed because fewer backends are
	// healthy than even the degraded-quorum policy tolerates. Classed
	// Transient: the probe machinery is actively reconverging backends, so
	// a backed-off retry is the right response.
	ErrDegraded = xerr.New(xerr.Transient, "replicate: insufficient healthy backends for quorum")
)

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
	// before it returns. 1 ≤ Quorum ≤ len(backends).
	Quorum int
	// ChunkSize is the content-addressing granularity in bytes; must be a
	// multiple of the primary's block size. Default 4096.
	ChunkSize int
	// WALDir is the dispatch journal directory (required). An existing
	// journal is replayed before the box serves I/O.
	WALDir string
	// SyncWindow is the journal's group-commit window.
	SyncWindow time.Duration
	// HedgeDelay bounds how long a write waits for its quorum before
	// returning anyway (the record stays uncommitted and is re-driven by
	// the retry machinery). Default 2ms.
	HedgeDelay time.Duration
	// ProbeInterval paces the health probe / resync loop over evicted
	// backends. Default 50ms.
	ProbeInterval time.Duration
	// QueueHighWatermark bounds the pending (journaled, still below
	// quorum) dispatch queue: a write arriving with the queue at
	// or above it gets ErrBusy until the queue drains to QueueLowWatermark.
	// Default 1024.
	QueueHighWatermark int
	// QueueLowWatermark is where engaged backpressure releases (hysteresis,
	// so admission doesn't flap at the boundary). Default half the high
	// watermark.
	QueueLowWatermark int
	// BreakerThreshold is the consecutive per-backend failure (or
	// over-deadline apply) count that trips its circuit breaker. Failed
	// applies are retried inline with jittered backoff until the threshold
	// exhausts. Default 3.
	BreakerThreshold int
	// DegradedQuorum, when > 0, lets writes proceed at a reduced quorum
	// while breakers are open: a write finding fewer than Quorum healthy
	// backends succeeds with the survivors' acks as long as at least
	// DegradedQuorum remain, and fast-fails with ErrDegraded below that.
	// 0 keeps the legacy behavior (hedged return, asynchronous catch-up).
	DegradedQuorum int
	// ApplyTimeout, when > 0, treats a backend apply slower than this as a
	// breaker-relevant failure even though it succeeded — the slow-backend
	// brownout detector. Half-open probes must also beat it to close the
	// breaker. 0 disables latency tripping.
	ApplyTimeout time.Duration
	// WALQuota, when set, bounds the dispatch journal's on-disk bytes (see
	// wal.Options.Quota) — the deterministic ENOSPC injection the overload
	// experiments drive WAL-full scenarios with.
	WALQuota wal.Quota
	// Seed fixes the retry backoff jitter sequence. Default 1.
	Seed int64
	// Obs receives the box's metrics and events (default obs.Default()).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ChunkSize == 0 {
		c.ChunkSize = 4096
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 2 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 50 * time.Millisecond
	}
	if c.QueueHighWatermark <= 0 {
		c.QueueHighWatermark = 1024
	}
	if c.QueueLowWatermark <= 0 || c.QueueLowWatermark >= c.QueueHighWatermark {
		c.QueueLowWatermark = c.QueueHighWatermark / 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
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
	quorum int           // acks that release the writer; may sit below Config.Quorum in degraded mode
	done   chan struct{} // closed when acks reach quorum

	// Guarded by Box.mu; bit i stands for Box.targets[i].
	acked uint64 // backends that applied the job
	owed  uint64 // backends it was enqueued to that have neither applied it nor been evicted
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

	// guarded by box.mu
	alive   bool
	lastErr error

	// slowStreak counts consecutive over-deadline applies; owned by the
	// target's worker goroutine.
	slowStreak int

	gBreaker *obs.Gauge   // breaker_state: BreakerClosed/HalfOpen/Open
	mProbes  *obs.Counter // half-open probe attempts
}

// BreakerState returns the backend's current breaker gauge value.
func (t *Target) BreakerState() int64 { return t.gBreaker.Value() }

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

// IDAt returns the chunk ID the backend maps at slot.
func (t *Target) IDAt(slot uint64) cas.ID { return t.store.IDAt(slot) }

// ReadChunk returns the backend's content at slot (verified).
func (t *Target) ReadChunk(slot uint64) ([]byte, error) {
	buf := make([]byte, t.store.ChunkSize())
	if err := t.store.Read(slot, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteChunk force-overwrites the backend's content at slot (scrub
// repair) — it must reach the stored bytes even when the slot's mapping is
// already correct, which is exactly the corrupted-chunk case.
func (t *Target) WriteChunk(slot uint64, data []byte) error {
	return t.store.Repair(slot, data)
}

// Box is the replication middle-box device: blockdev.Device over the
// primary, with journaled content-addressed fan-out to the backends.
type Box struct {
	cfg     Config
	primary blockdev.Device
	log     *wal.Log
	slots   uint64 // primary size in chunks
	bpc     uint64 // blocks per chunk

	mu         sync.Mutex // targets' health, jobs and their ack state, lifecycle flags
	writeMu    sync.Mutex // serializes append→apply→snapshot→enqueue
	targets    []*Target
	jobs       map[uint64]*job // journaled, record not yet committed
	waiting    int             // of those, still below quorum: the admission depth
	overloaded bool            // admission latched shut until waiting drains to the low watermark
	killed     bool
	closed     bool

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

	mDispatch, mDedup, mQuorumMiss, mHedged, mReplays *obs.Counter
	mBytesLogical, mBytesStored                       *obs.Counter
	mBPRejects, mDegraded                             *obs.Counter
	gPending, gAlive, gBackpressure                   *obs.Gauge
}

var _ blockdev.Device = (*Box)(nil)

// Kill-point stage tags consulted through Config's kill hook.
const (
	StageAppended = "appended" // journal record durable, nothing applied
	StagePrimary  = "primary"  // primary updated, backends not enqueued
)

// New builds a replication box over primary with the given backends. Every
// backend store must use cfg.ChunkSize chunks and cover the primary. If
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
	bs := primary.BlockSize()
	if cfg.ChunkSize%bs != 0 {
		return nil, fmt.Errorf("replicate: chunk size %d not a multiple of block size %d", cfg.ChunkSize, bs)
	}
	bpc := uint64(cfg.ChunkSize / bs)
	slots := (primary.Blocks() + bpc - 1) / bpc
	b := &Box{
		cfg:     cfg,
		primary: primary,
		slots:   slots,
		bpc:     bpc,
		jobs:    make(map[uint64]*job),
		stop:    make(chan struct{}),
		backoff: faults.NewBackoff(time.Millisecond, 50*time.Millisecond, cfg.Seed),
	}
	if cfg.DegradedQuorum > cfg.Quorum {
		return nil, fmt.Errorf("replicate: degraded quorum %d above quorum %d", cfg.DegradedQuorum, cfg.Quorum)
	}
	for i, nb := range backends {
		if nb.Store.ChunkSize() != cfg.ChunkSize {
			return nil, fmt.Errorf("replicate: backend %q chunk size %d, want %d", nb.Name, nb.Store.ChunkSize(), cfg.ChunkSize)
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
	b.initMetrics()

	walOpts := wal.Options{SyncWindow: cfg.SyncWindow, Quota: cfg.WALQuota}
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

// Pending reports the number of journaled writes still below quorum.
func (b *Box) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiting
}

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

// SetKillHook installs the crash-test hook; see Box.killAfter.
func (b *Box) SetKillHook(fn func(seq uint64, stage string) bool) { b.killAfter = fn }

func (b *Box) initMetrics() {
	p := "replicate." + b.cfg.Name + "."
	r := b.cfg.Obs
	b.mDispatch = r.Counter(p + "dispatches")
	b.mDedup = r.Counter(p + "dedup_hits")
	b.mQuorumMiss = r.Counter(p + "quorum_misses")
	b.mHedged = r.Counter(p + "hedged")
	b.mReplays = r.Counter(p + "replays")
	b.mBytesLogical = r.Counter(p + "bytes_logical")
	b.mBytesStored = r.Counter(p + "bytes_stored")
	b.mBPRejects = r.Counter("backpressure." + b.cfg.Name + ".rejects")
	b.mDegraded = r.Counter(p + "degraded_writes")
	b.gPending = r.Gauge(p + "pending")
	b.gAlive = r.Gauge(p + "backends_alive")
	b.gBackpressure = r.Gauge("backpressure." + b.cfg.Name + ".engaged")
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

// admit is WriteAt's admission control, run before the write journals or
// touches the primary so a refused write leaves no partial state. It
// enforces the pending-queue watermarks (with hysteresis: once engaged,
// backpressure holds until the queue drains to the low watermark) and
// resolves the write's effective quorum against the healthy backend count —
// reduced to the survivors when DegradedQuorum allows, typed fast-fail when
// even that floor can't be met.
func (b *Box) admit() (quorum int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	depth := b.waiting
	if b.overloaded {
		if depth > b.cfg.QueueLowWatermark {
			b.mBPRejects.Inc()
			return 0, fmt.Errorf("%w: %d pending, watermark %d/%d", ErrBusy, depth, b.cfg.QueueHighWatermark, b.cfg.QueueLowWatermark)
		}
		b.overloaded = false
		b.gBackpressure.Set(0)
		b.cfg.Obs.Eventf("replicate", "box %s backpressure released at %d pending", b.cfg.Name, depth)
	} else if depth >= b.cfg.QueueHighWatermark {
		b.overloaded = true
		b.gBackpressure.Set(1)
		b.mBPRejects.Inc()
		b.cfg.Obs.Eventf("replicate", "box %s backpressure engaged at %d pending", b.cfg.Name, depth)
		return 0, fmt.Errorf("%w: %d pending, watermark %d/%d", ErrBusy, depth, b.cfg.QueueHighWatermark, b.cfg.QueueLowWatermark)
	}

	alive := 0
	for _, t := range b.targets {
		if t.alive {
			alive++
		}
	}
	quorum = b.cfg.Quorum
	if alive < quorum && b.cfg.DegradedQuorum > 0 {
		if alive < b.cfg.DegradedQuorum {
			return 0, fmt.Errorf("%w: %d healthy, degraded floor %d", ErrDegraded, alive, b.cfg.DegradedQuorum)
		}
		quorum = alive
		b.mDegraded.Inc()
	}
	return quorum, nil
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
	data := make([]byte, b.cfg.ChunkSize)
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
// affected chunks' new content out to every live backend. It returns once a
// quorum of backends acknowledges — or after HedgeDelay, counted as a quorum
// miss. Either way the journal record stays uncommitted until every backend
// the write was handed to has applied it or been evicted (the resync prober
// catches an evicted one up), so a crash before that replays the record.
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
	quorum, err := b.admit()
	if err != nil {
		return err
	}

	first := lba / b.bpc
	last := (lba + nblocks - 1) / b.bpc
	j := &job{
		quorum: quorum,
		chunks: make([]chunkUpdate, last-first+1),
		done:   make(chan struct{}),
	}
	// A chunk the write covers entirely will hold exactly p's bytes, so its
	// content and ID are known here, before the lock and without reading
	// the primary back. The bytes are copied because the job outlives this
	// call when it returns hedged or at quorum, and the caller recycles p.
	if full, end := (lba+b.bpc-1)/b.bpc, (lba+nblocks)/b.bpc; full < end {
		own := append([]byte(nil), p[(full*b.bpc-lba)*bs:(end*b.bpc-lba)*bs]...)
		for slot := full; slot < end; slot++ {
			data := own[:b.cfg.ChunkSize:b.cfg.ChunkSize]
			own = own[b.cfg.ChunkSize:]
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
		b.freezeLocked()
		b.writeMu.Unlock()
		return ErrKilled
	}
	if err := b.primary.WriteAt(p, lba); err != nil {
		b.abandon(seq)
		b.writeMu.Unlock()
		return err
	}
	if b.killAfter != nil && b.killAfter(seq, StagePrimary) {
		b.freezeLocked()
		b.writeMu.Unlock()
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
	live := j.owed
	b.jobs[seq] = j
	b.waiting++
	b.gPending.Set(int64(b.waiting))
	b.mu.Unlock()
	for _, t := range b.targets {
		if live&t.bit == 0 {
			continue
		}
		t.enq.Add(1)
		select {
		case t.queue <- j:
		case <-b.stop:
			t.done.Add(1)
			b.writeMu.Unlock()
			return ErrKilled
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

	hedge := time.NewTimer(b.cfg.HedgeDelay)
	defer hedge.Stop()
	select {
	case <-j.done:
		return nil
	case <-hedge.C:
		// Hedged return: the write is durable in the journal and applied
		// to the primary; the backends converge asynchronously.
		b.mHedged.Inc()
		b.mQuorumMiss.Inc()
		return nil
	case <-b.stop:
		return nil
	}
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
// job, or was evicted owing it (resync owns its content from there). The
// ack that reaches quorum releases the waiting writer and the admission
// slot; the journal record commits only when no backend owes the job any
// more, so a crash before that replays it to the backend it had not reached.
// Caller holds b.mu.
func (b *Box) settleLocked(j *job, t *Target, applied bool) {
	if b.jobs[j.seq] != j {
		return // already committed
	}
	if applied && j.acked&t.bit == 0 {
		j.acked |= t.bit
		if bits.OnesCount64(j.acked) == j.quorum {
			close(j.done)
			b.waiting--
			b.gPending.Set(int64(b.waiting))
		}
	}
	j.owed &^= t.bit
	if j.owed == 0 && bits.OnesCount64(j.acked) >= j.quorum {
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
	t.alive = false
	t.lastErr = err
	for _, j := range b.jobs {
		if j.owed&t.bit != 0 {
			b.settleLocked(j, t, false)
		}
	}
	alive := 0
	for _, x := range b.targets {
		if x.alive {
			alive++
		}
	}
	b.mu.Unlock()
	if !already {
		b.gAlive.Set(int64(alive))
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

// Backpressured reports whether dispatch-queue backpressure is currently
// engaged (pending depth crossed the high watermark and has not yet
// drained to the low one) — the admission-side overload signal the
// orchestrator surfaces alongside BreakerOpen.
func (b *Box) Backpressured() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.overloaded
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
	t.alive = true
	t.lastErr = nil
	alive := 0
	for _, x := range b.targets {
		if x.alive {
			alive++
		}
	}
	// The backend now holds everything the primary does, every journaled
	// write included.
	for _, j := range b.jobs {
		b.settleLocked(j, t, true)
	}
	b.mu.Unlock()
	b.gAlive.Set(int64(alive))
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
	defer b.writeMu.Unlock()
	b.freezeLocked()
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

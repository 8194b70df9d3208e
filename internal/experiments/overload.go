package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/services/replicate"
	"repro/internal/statedir"
	"repro/internal/wal"
	"repro/internal/xerr"
)

// The overload suite drives the replication stack into its resource walls
// and checks it degrades the way the robustness design promises: exhaustion
// surfaces as typed errors (never hangs, never corruption), pressure release
// restores service with no data loss, a browned-out backend trips its
// circuit breaker without dragging the healthy path down, and the whole
// episode stays within a bounded memory envelope.

// OverloadConfig sizes an overload run.
type OverloadConfig struct {
	// BrownoutWrites is the write count per measured phase of the brownout
	// scenario (default 400).
	BrownoutWrites int
}

// overloadChunks is the image size, in chunks, of the overload suite's rigs.
const overloadChunks = 64

// OverloadRun is one dated overload-suite result.
type OverloadRun struct {
	When     string `json:"when"`
	Backends int    `json:"backends"`
	Quorum   int    `json:"quorum"`
	Chunks   int    `json:"chunks"`
	StateFS  string `json:"state_fs"` // the dispatch journals' file system

	// WAL-full: a dispatch journal hitting its byte quota mid-workload.
	WALWritesAdmitted int  `json:"wal_writes_admitted"`
	WALWritesRefused  int  `json:"wal_writes_refused"`
	WALFullTyped      bool `json:"wal_full_typed"`
	WALConverged      bool `json:"wal_converged_after_release"`

	// CAS-full: a backend out of physical chunk slots.
	CASFullTyped bool `json:"cas_full_typed"`
	CASRecovered bool `json:"cas_recovered_after_free"`

	// Brownout: one backend of three answering slowly.
	BreakerTripped    bool          `json:"breaker_tripped"`
	BreakerRecovered  bool          `json:"breaker_recovered"`
	BaselineP99       time.Duration `json:"baseline_p99_ns"`
	BrownoutP99       time.Duration `json:"brownout_p99_ns"`
	BrownoutConverged bool          `json:"brownout_converged"`

	// HeapGrowthMB is the live-heap delta across the whole suite (post-GC),
	// the bounded-memory gate.
	HeapGrowthMB float64 `json:"heap_growth_mib"`

	Violations `json:"violations,omitempty"`
}

// runWALFull drives the ENOSPC scenario: a dispatch journal under a byte
// quota fills mid-workload, writes refuse typed, the quota grows (the
// operator adds disk), and the full image reconverges with nothing lost.
func runWALFull(run *OverloadRun) error {
	quota := faults.NewDiskFull(32 << 10)
	r, err := newRig(replicate.Config{
		Name:     "ovl-wal",
		Quorum:   rigQuorum,
		WALQuota: quota,
		Obs:      obs.NewRegistry(),
	}, overloadChunks, memBackend(nil))
	if err != nil {
		return err
	}
	defer r.Close()
	run.StateFS = statedir.FS(r.walDir)

	var full error
	for s := 0; s < overloadChunks; s++ {
		if err := r.write(0, s); err != nil {
			full = err
			break
		}
		run.WALWritesAdmitted++
	}
	if full == nil {
		return fmt.Errorf("overload: 32 KiB journal quota admitted all %d chunk writes", overloadChunks)
	}
	run.WALFullTyped = errors.Is(full, wal.ErrWALFull) &&
		xerr.Classify(full) == xerr.Exhausted && !xerr.Retryable(full)

	// The wall holds: every write during the episode refuses typed, none
	// hangs, none corrupts.
	for i := 0; i < 8; i++ {
		err := r.write(0, i)
		if err == nil {
			return fmt.Errorf("overload: write admitted against a full journal")
		}
		if !errors.Is(err, wal.ErrWALFull) {
			run.WALFullTyped = false
		}
		run.WALWritesRefused++
	}

	// Pressure release: grow the quota and re-ingest the whole image.
	quota.Grow(64 << 20)
	for s := 0; s < overloadChunks; s++ {
		if err := r.write(1, s); err != nil {
			return fmt.Errorf("overload: write after quota grow: %w", err)
		}
	}
	run.WALConverged, err = r.converged()
	return err
}

// memBackend returns a newRig backend constructor of in-memory stores,
// each passed through wrap when it is non-nil.
func memBackend(wrap func(i int, be cas.Backend) cas.Backend) func(int) (cas.Backend, error) {
	return func(i int) (cas.Backend, error) {
		var be cas.Backend = cas.NewMemBackend(overloadChunks)
		if wrap != nil {
			be = wrap(i, be)
		}
		return be, nil
	}
}

// runCASFull drives a block-backed content store into physical chunk-slot
// exhaustion: new unique content refuses typed, and freeing a slot (the
// dedup overwrite path) readmits writes.
func runCASFull(run *OverloadRun) error {
	const slots = 32
	be, err := blockBackend(slots)(0)
	if err != nil {
		return err
	}
	s, err := cas.Open(be, rigChunk, slots)
	if err != nil {
		return err
	}
	defer s.Close()

	for i := uint64(0); i < slots; i++ {
		if _, err := s.Write(i, chunkData(2, int(i))); err != nil {
			return fmt.Errorf("overload: cas fill slot %d: %w", i, err)
		}
	}
	// Consume the backend's orphan-slack physical slots with direct puts
	// until the store sits at its exact last slot.
	for i := 0; i < slots*4; i++ {
		data := chunkData(3, i)
		if err := be.PutChunk(cas.NoSlot, cas.Sum(data), data); err != nil {
			break
		}
	}
	_, full := s.Write(0, chunkData(4, 0))
	if full == nil {
		return fmt.Errorf("overload: full content store admitted new unique content")
	}
	run.CASFullTyped = errors.Is(full, cas.ErrStoreFull) && xerr.Classify(full) == xerr.Exhausted

	// Recovery: a dedup overwrite displaces slot 0's old chunk (refcount to
	// zero, physical slot freed), after which new unique content admits.
	if _, err := s.Write(0, chunkData(2, 1)); err != nil {
		return fmt.Errorf("overload: dedup overwrite at capacity: %w", err)
	}
	fresh := chunkData(5, 0)
	if _, err := s.Write(0, fresh); err != nil {
		return fmt.Errorf("overload: write to freed slot: %w", err)
	}
	buf := make([]byte, rigChunk)
	if err := s.Read(0, buf); err != nil {
		return err
	}
	run.CASRecovered = string(buf) == string(fresh)
	return nil
}

// pacedBackend wraps a content backend with a token-bucket pacer: it
// answers correctly but late — the injected brownout.
type pacedBackend struct {
	cas.Backend
	mu    sync.Mutex
	pacer *faults.SlowBackend
}

func (p *pacedBackend) setRate(rate, burst float64) {
	p.mu.Lock()
	if rate <= 0 {
		p.pacer = nil
	} else {
		p.pacer = faults.NewSlowBackend(rate, burst)
	}
	p.mu.Unlock()
}

func (p *pacedBackend) PutChunk(slot uint64, id cas.ID, data []byte) error {
	p.mu.Lock()
	pacer := p.pacer
	p.mu.Unlock()
	pacer.Pace(len(data))
	return p.Backend.PutChunk(slot, id, data)
}

// runBrownout drives the 1-slow-of-3 scenario: one backend browns out, its
// breaker trips on over-deadline applies (visible on the breaker_state
// gauge), the healthy path's p99 stays bounded, and healing closes the
// breaker and reconverges the straggler.
func runBrownout(cfg OverloadConfig, run *OverloadRun) error {
	victim := &pacedBackend{}
	reg := obs.NewRegistry()
	r, err := newRig(replicate.Config{
		Name:             "ovl-slow",
		Quorum:           rigQuorum,
		BreakerThreshold: 2,
		ApplyTimeout:     3 * time.Millisecond,
		// Long enough that a tripped breaker's resync (which holds the
		// write path while it re-pushes diverged slots through the paced
		// backend) cannot land inside a measured phase and smear the
		// healthy-path p99; short enough that post-heal recovery is quick.
		ProbeInterval: 500 * time.Millisecond,
		Obs:           reg,
	}, overloadChunks, memBackend(func(i int, be cas.Backend) cas.Backend {
		if i != rigBackends-1 {
			return be
		}
		victim.Backend = be
		return victim
	}))
	if err != nil {
		return err
	}
	defer r.Close()
	gBreaker := reg.Gauge(fmt.Sprintf("replicate.ovl-slow.backend%d.breaker_state", rigBackends-1))

	// seq makes every write's content unique: a repeat of a slot's previous
	// content is a dedup hit that skips the backend entirely, which would
	// let the paced victim dodge its slow applies (and reset its breaker's
	// slow-streak between the ones it does serve).
	seq := 0
	writePhase := func(gen int) (time.Duration, error) {
		hist := &obs.Histogram{}
		rng := rand.New(rand.NewSource(int64(gen)))
		for i := 0; i < cfg.BrownoutWrites; i++ {
			s := rng.Intn(overloadChunks)
			seq++
			t0 := time.Now()
			if err := r.write(gen+seq<<8, s); err != nil {
				return 0, fmt.Errorf("overload: brownout write (gen %d): %w", gen, err)
			}
			hist.Observe(time.Since(t0))
		}
		return hist.Percentile(99), nil
	}

	// Baseline: all backends healthy.
	if run.BaselineP99, err = writePhase(10); err != nil {
		return err
	}
	if err := r.drain(); err != nil {
		return err
	}

	// Brownout: the victim answers a 4 KiB apply in ~16 ms — far over the
	// 3 ms apply deadline — so its breaker trips while the two healthy
	// backends keep satisfying the quorum. A half-open probe whose chunk
	// happens to dedup-hit can briefly reclose the breaker, so a concurrent
	// watcher samples the breaker_state gauge to catch open windows a
	// phase-end poll would miss.
	victim.setRate(256<<10, 4096)
	watchStop := make(chan struct{})
	watchDone := make(chan struct{})
	var sawOpen bool
	go func() {
		defer close(watchDone)
		for {
			select {
			case <-watchStop:
				return
			default:
			}
			if gBreaker.Value() == replicate.BreakerOpen {
				sawOpen = true
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	if run.BrownoutP99, err = writePhase(11); err != nil {
		close(watchStop)
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sawOpen && time.Now().Before(deadline) {
		if _, err := writePhase(11); err != nil {
			close(watchStop)
			return err
		}
	}
	close(watchStop)
	<-watchDone
	run.BreakerTripped = sawOpen

	// Heal: probes close the breaker and resync reconverges the straggler.
	victim.setRate(0, 0)
	healDeadline := time.Now().Add(10 * time.Second)
	for gBreaker.Value() != replicate.BreakerClosed && time.Now().Before(healDeadline) {
		time.Sleep(5 * time.Millisecond)
	}
	run.BreakerRecovered = gBreaker.Value() == replicate.BreakerClosed
	if _, err := writePhase(12); err != nil {
		return err
	}
	run.BrownoutConverged, err = r.converged()
	return err
}

// liveHeapMB reports the post-GC live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// RunOverload runs the three overload scenarios and evaluates the gates.
func RunOverload(cfg OverloadConfig) (*OverloadRun, error) {
	if cfg.BrownoutWrites <= 0 {
		cfg.BrownoutWrites = 400
	}
	run := &OverloadRun{
		When:     now(),
		Backends: rigBackends,
		Quorum:   rigQuorum,
		Chunks:   overloadChunks,
	}
	heap0 := liveHeapMB()
	if err := runWALFull(run); err != nil {
		return nil, err
	}
	if err := runCASFull(run); err != nil {
		return nil, err
	}
	if err := runBrownout(cfg, run); err != nil {
		return nil, err
	}
	run.HeapGrowthMB = liveHeapMB() - heap0

	// Gates.
	if !run.WALFullTyped {
		run.Violations = append(run.Violations, "journal exhaustion did not surface as typed ErrWALFull (Exhausted, non-retryable)")
	}
	if !run.WALConverged {
		run.Violations = append(run.Violations, "backends diverged after the WAL-full episode (data loss)")
	}
	if !run.CASFullTyped {
		run.Violations = append(run.Violations, "content-store exhaustion did not surface as typed ErrStoreFull")
	}
	if !run.CASRecovered {
		run.Violations = append(run.Violations, "content store did not readmit writes after a slot freed")
	}
	if !run.BreakerTripped {
		run.Violations = append(run.Violations, "slow backend never tripped its circuit breaker")
	}
	if !run.BreakerRecovered {
		run.Violations = append(run.Violations, "circuit breaker never closed after the brownout healed")
	}
	// The healthy path must not be dragged down by the browned-out backend:
	// p99 within 3x the healthy baseline, with a 5 ms absolute floor so
	// scheduler jitter on a sub-millisecond baseline can't fail the gate.
	if limit := 3 * run.BaselineP99; run.BrownoutP99 > limit && run.BrownoutP99 > 5*time.Millisecond {
		run.Violations = append(run.Violations,
			fmt.Sprintf("healthy-path p99 %v during brownout exceeds 3x baseline %v", run.BrownoutP99, run.BaselineP99))
	}
	if !run.BrownoutConverged {
		run.Violations = append(run.Violations, "backends diverged after the brownout episode (data loss)")
	}
	if run.HeapGrowthMB > 64 {
		run.Violations = append(run.Violations,
			fmt.Sprintf("live heap grew %.1f MiB across the suite (bound 64 MiB)", run.HeapGrowthMB))
	}
	return run, nil
}

// FormatOverload renders the overload report.
func FormatOverload(run *OverloadRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "overload: %d backends quorum %d, %d-chunk image, journals on %s\n", run.Backends, run.Quorum, run.Chunks, run.StateFS)
	fmt.Fprintf(&b, "  WAL full     %d writes admitted, then %d refused typed=%v; converged after release: %v\n",
		run.WALWritesAdmitted, run.WALWritesRefused+1, run.WALFullTyped, run.WALConverged)
	fmt.Fprintf(&b, "  CAS full     typed refusal: %v; readmitted after free: %v\n", run.CASFullTyped, run.CASRecovered)
	fmt.Fprintf(&b, "  brownout     breaker tripped: %v, recovered: %v; converged: %v\n",
		run.BreakerTripped, run.BreakerRecovered, run.BrownoutConverged)
	fmt.Fprintf(&b, "  healthy p99  %v baseline -> %v during brownout\n",
		run.BaselineP99.Round(time.Microsecond), run.BrownoutP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  memory       live heap %+.1f MiB across the suite\n", run.HeapGrowthMB)
	run.Violations.write(&b, "overload")
	return b.String()
}

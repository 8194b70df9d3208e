// Package scrub implements the background integrity scrubber for
// content-addressed replica sets: it paces through the applied data slot
// by slot, re-checksums every healthy replica's content, and repairs
// divergent or corrupt replicas from a verified healthy majority. Progress
// and repairs are exported as scrub.<name>.* gauges/counters and events.
//
// The scrubber is deliberately decoupled from the replication box: it
// sees replicas through the small Replica interface, which
// replicate.Target satisfies structurally, so a scrubber is pointed
// straight at Box.Targets() — or at any other set of content-addressed
// stores.
package scrub

import (
	"errors"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/obs"
)

// Replica is one scrubbed backend: a content-addressed view of the same
// logical image. ReadChunk fills dst, one chunk long, and must verify
// content (returning an error for a chunk that no longer hashes to its ID);
// WriteChunk is the repair path, and may refuse stale content.
type Replica interface {
	Name() string
	Healthy() bool
	ReadChunk(slot uint64, dst []byte) error
	WriteChunk(slot uint64, data []byte) error
}

// Config parameterizes a scrubber.
type Config struct {
	// Name labels the scrubber's obs series (scrub.<name>.*) — the
	// middle-box instance name in production wiring.
	Name string
	// Replicas is the replica set to reconcile (≥ 2 for majority repair).
	Replicas []Replica
	// Slots is the logical image size in chunks.
	Slots uint64
	// ChunkSize is the chunk size in bytes (used for zero-fill repair).
	ChunkSize int
	// Interval is the idle time between background passes. Default 1s.
	Interval time.Duration
	// Paused, when non-nil, is polled before each background pass: while it
	// reports true the scrubber idles instead of scanning. Production
	// wiring points it at the replication box's BreakerOpen — scrubbing
	// while a backend breaker is open would race resync on a degraded set
	// and add read load exactly when the system is shedding it.
	Paused func() bool
	// Obs receives metrics and events (default obs.Default()).
	Obs *obs.Registry
}

// PassStats summarizes one scrub pass.
type PassStats struct {
	// Scanned counts slots examined.
	Scanned uint64
	// Mismatches counts replica-slots found divergent or corrupt.
	Mismatches uint64
	// Repaired counts replica-slots rewritten from the healthy majority.
	Repaired uint64
	// Unrepairable counts slots with no verifiable majority to repair
	// from.
	Unrepairable uint64
}

// pace is how many slots a background pass scans between checks for Stop.
const pace = 64

// ErrStopped reports a pass interrupted by Stop.
var ErrStopped = errors.New("scrub: stopped")

// Scrubber reconciles a content-addressed replica set.
type Scrubber struct {
	cfg  Config
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	passMu sync.Mutex // one pass at a time: it owns bufs and votes
	bufs   [][]byte   // one chunk buffer per replica, reused across slots
	votes  []vote     // scratch for one slot's votes

	mPasses, mScanned, mRepaired, mMismatches, mUnrepairable, mSkipped *obs.Counter
	gLastPassMS                                                        *obs.Gauge
}

// New builds a scrubber (call Start for the background loop, or RunPass
// directly).
func New(cfg Config) *Scrubber {
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Default()
	}
	s := &Scrubber{cfg: cfg, stop: make(chan struct{})}
	p := "scrub." + cfg.Name + "."
	s.mPasses = cfg.Obs.Counter(p + "passes")
	s.mScanned = cfg.Obs.Counter(p + "scanned")
	s.mRepaired = cfg.Obs.Counter(p + "repaired")
	s.mMismatches = cfg.Obs.Counter(p + "mismatches")
	s.mUnrepairable = cfg.Obs.Counter(p + "unrepairable")
	s.gLastPassMS = cfg.Obs.Gauge(p + "last_pass_ms")
	s.mSkipped = cfg.Obs.Counter(p + "skipped_passes")
	return s
}

// Start launches the paced background loop: one full pass, then Interval
// idle, until Stop.
func (s *Scrubber) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			if s.cfg.Paused != nil && s.cfg.Paused() {
				s.mSkipped.Inc()
			} else if _, err := s.runPass(true); err != nil {
				return
			}
			select {
			case <-s.stop:
				return
			case <-time.After(s.cfg.Interval):
			}
		}
	}()
}

// Stop halts the background loop and waits for it.
func (s *Scrubber) Stop() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// RunPass scans every slot once, repairing divergent replicas, and
// returns the pass statistics. A write landing between a slot's reads and
// its repair makes the voted majority stale: the replica must refuse that
// repair (replicate.Target checks it against the primary under the box's
// write lock), and a refusal is logged, not counted as repaired.
func (s *Scrubber) RunPass() (PassStats, error) {
	return s.runPass(false)
}

func (s *Scrubber) runPass(paced bool) (PassStats, error) {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	if s.bufs == nil {
		s.bufs = make([][]byte, len(s.cfg.Replicas))
		for i := range s.bufs {
			s.bufs[i] = make([]byte, s.cfg.ChunkSize)
		}
		s.votes = make([]vote, 0, len(s.cfg.Replicas))
	}
	start := time.Now()
	var st PassStats
	for slot := uint64(0); slot < s.cfg.Slots; slot++ {
		if paced && slot%pace == 0 {
			select {
			case <-s.stop:
				return st, ErrStopped
			default:
			}
		}
		s.scrubSlot(slot, &st)
	}
	st.Scanned = s.cfg.Slots
	s.mPasses.Inc()
	s.mScanned.Add(int64(st.Scanned))
	s.mRepaired.Add(int64(st.Repaired))
	s.mMismatches.Add(int64(st.Mismatches))
	s.mUnrepairable.Add(int64(st.Unrepairable))
	s.gLastPassMS.Set(time.Since(start).Milliseconds())
	if st.Repaired > 0 || st.Unrepairable > 0 {
		s.cfg.Obs.Eventf("scrub", "scrubber %s pass: %d slots, %d mismatches, %d repaired, %d unrepairable",
			s.cfg.Name, st.Scanned, st.Mismatches, st.Repaired, st.Unrepairable)
	}
	return st, nil
}

// vote is one healthy replica's reading of a slot.
type vote struct {
	r   Replica
	buf []byte // what it read
	ok  bool   // the read verified
	sum cas.ID
}

// scrubSlot reconciles one slot across the healthy replicas: every
// replica's logical content is read back verified and hashed; the
// majority hash wins and divergent or unreadable replicas are rewritten
// with the majority's (re-verified) content. It allocates nothing unless
// it finds a mismatch.
func (s *Scrubber) scrubSlot(slot uint64, st *PassStats) {
	healthy := s.votes[:0]
	for i, r := range s.cfg.Replicas {
		if !r.Healthy() {
			continue
		}
		v := vote{r: r, buf: s.bufs[i]}
		if err := r.ReadChunk(slot, v.buf); err == nil {
			v.ok, v.sum = true, cas.Sum(v.buf)
		}
		healthy = append(healthy, v)
	}
	if len(healthy) < 2 {
		return // nothing to compare against
	}
	var (
		major  cas.ID
		good   []byte
		majorN int
	)
	for _, v := range healthy {
		n := 0
		for _, w := range healthy {
			if v.ok && w.ok && w.sum == v.sum {
				n++
			}
		}
		if n > majorN {
			major, good, majorN = v.sum, v.buf, n
		}
	}
	bad := 0
	for _, v := range healthy {
		if !v.ok || v.sum != major {
			bad++
		}
	}
	if bad == 0 {
		return
	}
	st.Mismatches += uint64(bad)
	if majorN*2 <= len(healthy) {
		// No strict majority agrees on any content: repairing would be a
		// guess, not a restoration.
		st.Unrepairable++
		s.cfg.Obs.Eventf("scrub", "scrubber %s slot %d unrepairable: no majority among %d replicas",
			s.cfg.Name, slot, len(healthy))
		return
	}
	for _, v := range healthy {
		if v.ok && v.sum == major {
			continue
		}
		if err := v.r.WriteChunk(slot, good); err != nil {
			s.cfg.Obs.Eventf("scrub", "scrubber %s repair of %s slot %d failed: %v",
				s.cfg.Name, v.r.Name(), slot, err)
			continue
		}
		st.Repaired++
	}
}

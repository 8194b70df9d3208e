package obs

import (
	"sync"
	"time"
)

// SLOTracker maintains a rolling latency window for one middle-box group
// against its policy `latencySLO` target and publishes the result as
// gauges the orchestrator (and any /metrics scraper) reads:
//
//	slo.<group>.p50_us / p99_us     windowed percentiles (microseconds)
//	slo.<group>.p99_ms              windowed p99 (milliseconds, rounded up)
//	slo.<group>.target_us           the latencySLO target
//	slo.<group>.window_ops          samples in the current window
//	slo.<group>.burn_permille       error-budget burn rate: the share of
//	                                windowed ops over target, relative to
//	                                the allowed share (1000 = burning
//	                                exactly the budget)
//
// Each Tick adds what the watched stage histograms' bucket counts grew by
// since the last read to the current slot, so the tracker piggybacks on
// the existing instrumentation without touching the hot path and holds no
// samples. The window is a ring of slots rotated by Tick; expired slots
// drop off, giving the rolling p50/p99 semantics the cumulative stage
// histograms cannot. Percentiles and the over-target count are exact to
// one bucket (1/16 of the value): a sample in the target's own bucket does
// not count as a violation.
type SLOTracker struct {
	reg    *Registry
	group  string
	target time.Duration
	window time.Duration
	slots  int
	// budget is the allowed violation share in permille (default 10 = 1%).
	budget int64

	mu        sync.Mutex
	sources   map[string]*sloSource
	ring      []sloSlot
	head      int
	headStart time.Time

	p50us, p99us, p99ms, targetUs, windowOps, burn *Gauge
}

// sloSource is a watched histogram and its bucket counts at the last read.
type sloSource struct {
	h    *Histogram
	last [numBuckets]uint64
}

// sloSlot is the samples one window slot took in, as bucket counts.
type sloSlot [numBuckets]uint64

// SLOConfig tunes a tracker; zero fields take the defaults.
type SLOConfig struct {
	// Window is the rolling window length (default 30s).
	Window time.Duration
	// Slots is the window's slot count — roll-over granularity (default 6).
	Slots int
	// BudgetPermille is the allowed share of ops over target, in permille
	// (default 10, i.e. a 99%-under-target objective).
	BudgetPermille int64
}

// SLOStatus is a tracker's point-in-time result.
type SLOStatus struct {
	Group        string        `json:"group"`
	Target       time.Duration `json:"target_ns"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
	WindowOps    int           `json:"window_ops"`
	Violations   int           `json:"violations"`
	BurnPermille int64         `json:"burn_permille"`
}

// NewSLOTracker builds a tracker for the named group (conventionally
// "<tenant>.<mb>") publishing into reg. target is the group's latencySLO.
func NewSLOTracker(reg *Registry, group string, target time.Duration, cfg SLOConfig) *SLOTracker {
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 6
	}
	if cfg.BudgetPermille <= 0 {
		cfg.BudgetPermille = 10
	}
	prefix := "slo." + group + "."
	t := &SLOTracker{
		reg:       reg,
		group:     group,
		target:    target,
		window:    cfg.Window,
		slots:     cfg.Slots,
		budget:    cfg.BudgetPermille,
		sources:   make(map[string]*sloSource),
		ring:      make([]sloSlot, cfg.Slots),
		headStart: reg.Now(),
		p50us:     reg.Gauge(prefix + "p50_us"),
		p99us:     reg.Gauge(prefix + "p99_us"),
		p99ms:     reg.Gauge(prefix + "p99_ms"),
		targetUs:  reg.Gauge(prefix + "target_us"),
		windowOps: reg.Gauge(prefix + "window_ops"),
		burn:      reg.Gauge(prefix + "burn_permille"),
	}
	t.targetUs.Set(target.Microseconds())
	return t
}

// Group returns the tracker's group key.
func (t *SLOTracker) Group() string { return t.group }

// Watch adds a registry histogram (by name) as a latency source. Adding
// an already-watched name is a no-op, so callers can re-assert the watch
// set each pass as group membership changes; watches on retired members
// go quiet on their own (their histograms stop growing).
func (t *SLOTracker) Watch(histName string) {
	if t == nil {
		return
	}
	h := t.reg.Histogram(histName)
	if h == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.sources[histName]; !ok {
		// Pre-existing samples predate the watch.
		src := &sloSource{h: h}
		h.load(&src.last)
		t.sources[histName] = src
	}
	t.mu.Unlock()
}

// Unwatch drops a latency source (e.g. a retired member's histogram).
func (t *SLOTracker) Unwatch(histName string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.sources, histName)
	t.mu.Unlock()
}

// Tick pulls new samples from every watched source into the current
// window slot, rolls expired slots off, and republishes the gauges. Call
// it from the control loop (the orchestrator reconcile pass).
func (t *SLOTracker) Tick(now time.Time) SLOStatus {
	if t == nil {
		return SLOStatus{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Roll the ring forward to cover now.
	slotDur := t.window / time.Duration(t.slots)
	for !now.Before(t.headStart.Add(slotDur)) {
		t.head = (t.head + 1) % t.slots
		t.ring[t.head] = sloSlot{}
		t.headStart = t.headStart.Add(slotDur)
		if now.Sub(t.headStart) > t.window {
			// Idle gap longer than the window: fast-forward.
			for i := range t.ring {
				t.ring[i] = sloSlot{}
			}
			t.headStart = now
			break
		}
	}

	// Add what each source took in since the last read to the head slot.
	slot := &t.ring[t.head]
	var cur [numBuckets]uint64
	for _, src := range t.sources {
		src.h.load(&cur)
		for i, c := range &cur {
			slot[i] += c - src.last[i]
		}
		src.last = cur
	}

	// Aggregate the window.
	var all [numBuckets]uint64
	var n uint64
	for j := range t.ring {
		for i, c := range &t.ring[j] {
			all[i] += c
			n += c
		}
	}
	st := SLOStatus{Group: t.group, Target: t.target, WindowOps: int(n)}
	if n > 0 {
		st.P50 = quantile(&all, n, 50)
		st.P99 = quantile(&all, n, 99)
		if t.target > 0 {
			for _, c := range all[bucketOf(int64(t.target))+1:] {
				st.Violations += int(c)
			}
			violPermille := int64(st.Violations) * 1000 / int64(n)
			st.BurnPermille = violPermille * 1000 / t.budget
		}
	}

	t.p50us.Set(st.P50.Microseconds())
	t.p99us.Set(st.P99.Microseconds())
	t.p99ms.Set(int64((st.P99 + time.Millisecond - 1) / time.Millisecond))
	t.windowOps.Set(int64(st.WindowOps))
	t.burn.Set(st.BurnPermille)
	return st
}

// Package obs is the process-wide observability spine of the StorM test
// bed: a registry of named counters, gauges, and fixed-size bucketed
// latency histograms, per-command stage spans along the
// VM → gateway → middle-box chain → target data path, a bounded
// structured-event log, per-host simulated CPU accounting (the Figure 10
// breakdown), and Prometheus-style text / JSON exposition.
//
// Hot paths hold on to the *Counter / *Gauge / Timer handles returned by
// the registry — after the one-time get-or-create, updates are a single
// atomic operation (counters, gauges) or one histogram observation.
// Counter and Gauge methods are nil-safe so instrumentation points can be
// wired unconditionally and disabled by passing a nil registry.
package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. A nil *Counter is a
// valid no-op receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level that also remembers its high-water mark
// (e.g. journal occupancy). A nil *Gauge is a valid no-op receiver.
type Gauge struct {
	v    atomic.Int64
	high atomic.Int64
}

// Set stores v and raises the high-water mark if needed.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.raise(v)
}

// Add moves the level by d (negative to lower it) and returns the new
// value, raising the high-water mark if needed.
func (g *Gauge) Add(d int64) int64 {
	if g == nil {
		return 0
	}
	v := g.v.Add(d)
	g.raise(v)
	return v
}

func (g *Gauge) raise(v int64) {
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the highest level ever set.
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// Timer is a nil-safe handle on a registry latency histogram; the zero
// value discards observations.
type Timer struct {
	h *Histogram
}

// Observe records one latency sample.
func (t Timer) Observe(d time.Duration) {
	if t.h != nil {
		t.h.Observe(d)
	}
}

// Since records the latency elapsed since t0.
func (t Timer) Since(t0 time.Time) {
	if t.h != nil {
		t.h.Observe(time.Since(t0))
	}
}

// Enabled reports whether observations are recorded.
func (t Timer) Enabled() bool { return t.h != nil }

// DroppedMetric names the counter bumped when the series cap rejects a
// new metric name; RetiredMetric counts series removed by RetireInstance.
const (
	DroppedMetric = "obs.metrics_dropped"
	RetiredMetric = "obs.metrics_retired"
)

// DefaultSeriesLimit caps the number of named series (counters + gauges +
// histograms) a registry creates before it starts refusing new names.
// Per-instance relay metrics would otherwise grow without bound across
// scale/crash-replace events; see RetireInstance.
const DefaultSeriesLimit = 4096

// regShards is the number of lock stripes a registry's series maps are
// split over. Concurrent tenants creating or resolving handles hash to
// different shards instead of serializing on one registry-wide RWMutex.
const regShards = 32

// regShard is one stripe of the registry's name→series maps.
type regShard struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Registry is a set of named metrics. All methods are safe for concurrent
// use; a nil *Registry returns nil (no-op) handles. The series maps are
// sharded by name hash; the cardinality cap stays globally consistent via
// one atomic series counter shared by all shards.
type Registry struct {
	shards [regShards]regShard
	series atomic.Int64 // named series across all shards (cap accounting)
	limit  atomic.Int64 // series cap; DefaultSeriesLimit when 0

	// clock overrides the time source for span/event/trace timestamps
	// (tests); nil means the default, see Now.
	clock atomic.Pointer[func() time.Time]

	// spans caches the (stage, dir) → stage-histogram resolution every span
	// start needs; see stageTimer. Tables are immutable, replaced under
	// spanMu.
	spans  atomic.Pointer[spanTable]
	spanMu sync.Mutex

	// trace is the tracing plane state; nil until EnableTracing.
	trace atomic.Pointer[traceState]

	evMu   sync.Mutex
	events []Event
	evNext int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.counters = make(map[string]*Counter)
		sh.gauges = make(map[string]*Gauge)
		sh.hists = make(map[string]*Histogram)
	}
	r.spans.Store(&spanTable{})
	return r
}

// shard returns the stripe owning name (FNV-1a over the name bytes).
func (r *Registry) shard(name string) *regShard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &r.shards[h%regShards]
}

// epoch anchors the registry clock. time.Since(epoch) reads only the
// monotonic clock — one clock read where time.Now makes two — and adding the
// offset back onto epoch yields a time.Time that still carries a wall
// reading.
var epoch = time.Now()

// Now returns the registry's notion of current time: the injected clock if
// one is set (tests), else the process-start wall time advanced by the
// monotonic clock. It is the one clock behind span edges, trace hops and
// events, so every timestamp in a dump lies on one timeline; the
// price is that a wall-clock step (NTP) after start-up does not show in it.
// Two span edges per command read it, which is why it is not time.Now.
// Nil-safe.
func (r *Registry) Now() time.Time {
	if r != nil {
		if f := r.clock.Load(); f != nil {
			return (*f)()
		}
	}
	return epoch.Add(time.Since(epoch))
}

// admit reserves one series slot against the global cap, returning false
// when the registry is full. It is an atomic reserve — concurrent creates
// on different shards can never overshoot the cap. The drop counter itself
// is exempt so the signal survives a saturated registry. Called with the
// owning shard's lock held; the caller bumps DroppedMetric after unlocking
// (the counter may live on another shard).
func (r *Registry) admit(name string) bool {
	if name == DroppedMetric {
		return true
	}
	limit := r.limit.Load()
	if limit <= 0 {
		limit = DefaultSeriesLimit
	}
	if r.series.Add(1) <= limit {
		return true
	}
	r.series.Add(-1)
	return false
}

// RetireInstance removes every metric series named for a torn-down relay
// instance — "relay.<inst>.*", "stage.relay.<inst>.*", and
// "orch.member.<inst>.*" — so per-instance cardinality cannot grow without
// bound across scale-down and crash-replace events. It returns the number
// of series removed (also accumulated in the RetiredMetric counter).
// Handles already held by callers keep working but are no longer exposed.
func (r *Registry) RetireInstance(inst string) int {
	if r == nil || inst == "" {
		return 0
	}
	prefixes := []string{
		"relay." + inst + ".",
		StagePrefix + "relay." + inst + ".",
		"orch.member." + inst + ".",
		"replicate." + inst + ".",
		"scrub." + inst + ".",
	}
	match := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for name := range sh.counters {
			if match(name) {
				delete(sh.counters, name)
				n++
			}
		}
		for name := range sh.gauges {
			if match(name) {
				delete(sh.gauges, name)
				n++
			}
		}
		for name := range sh.hists {
			if match(name) {
				delete(sh.hists, name)
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		r.series.Add(int64(-n))
		r.dropSpans(func(stage string) bool { return match(StagePrefix + stage) })
		r.Counter(RetiredMetric).Add(int64(n))
	}
	return n
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the wired-in
// instrumentation (cloud, splice, relays, caches) reports into.
func Default() *Registry { return defaultRegistry }

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	sh := r.shard(name)
	sh.mu.RLock()
	c := sh.counters[name]
	sh.mu.RUnlock()
	if c != nil {
		return c
	}
	sh.mu.Lock()
	if c = sh.counters[name]; c == nil && r.admit(name) {
		c = new(Counter)
		sh.counters[name] = c
	}
	sh.mu.Unlock()
	if c == nil {
		r.Counter(DroppedMetric).Inc()
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	sh := r.shard(name)
	sh.mu.RLock()
	g := sh.gauges[name]
	sh.mu.RUnlock()
	if g != nil {
		return g
	}
	sh.mu.Lock()
	if g = sh.gauges[name]; g == nil && r.admit(name) {
		g = new(Gauge)
		sh.gauges[name] = g
	}
	sh.mu.Unlock()
	if g == nil {
		r.Counter(DroppedMetric).Inc()
	}
	return g
}

// Histogram returns (creating on first use) the named latency histogram,
// or nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	sh := r.shard(name)
	sh.mu.RLock()
	h := sh.hists[name]
	sh.mu.RUnlock()
	if h != nil {
		return h
	}
	sh.mu.Lock()
	if h = sh.hists[name]; h == nil && r.admit(name) {
		h = new(Histogram)
		sh.hists[name] = h
	}
	sh.mu.Unlock()
	if h == nil {
		r.Counter(DroppedMetric).Inc()
	}
	return h
}

// Timer returns a nil-safe handle on the named latency histogram.
func (r *Registry) Timer(name string) Timer {
	return Timer{h: r.Histogram(name)}
}

// Reset discards every metric and event (tests; registry handles held by
// callers keep working but point at values no longer exposed).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.counters = make(map[string]*Counter)
		sh.gauges = make(map[string]*Gauge)
		sh.hists = make(map[string]*Histogram)
		sh.mu.Unlock()
	}
	r.series.Store(0)
	r.dropSpans(nil) // after the maps: see cacheStageTimer
	r.evMu.Lock()
	r.events = nil
	r.evNext = 0
	r.evMu.Unlock()
	if ts := r.trace.Load(); ts != nil {
		ts.reset()
	}
}

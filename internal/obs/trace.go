package obs

import (
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracing plane assigns every iSCSI command a trace ID at the
// initiator and follows it across the middle-box chain: each stage a
// command touches (initiator session, gateway hop, relay service leg,
// relay forward leg, MB-FWD hop, target) ends a SpanRecord into the
// owning trace. The ID travels in per-session command state — goroutine
// bindings inside a station, an out-of-band per-connection TraceTable
// keyed by the iSCSI initiator task tag between stations — never on the
// wire format.
//
// Always-on overhead stays low through tail-based retention: when a
// trace's root span ends, the trace is kept only if it ranks among the
// slowest SlowPerStage traces for its root stage (the exemplars attached
// to the histogram tail) or falls on the 1-in-SampleEvery head sample;
// everything else is dropped. Late spans (an active relay's asynchronous
// write-back forward) still land on retained traces during a bounded
// grace window after the root ends.

// TraceID identifies one end-to-end command trace.
type TraceID uint64

// SpanContext names a position in a trace: the trace a downstream span
// joins and the span it records as its parent. The zero value means "no
// trace"; spans started under it open a fresh trace.
type SpanContext struct {
	reg   *Registry
	trace TraceID
	span  uint64
}

// Valid reports whether the context belongs to a live trace.
func (sc SpanContext) Valid() bool { return sc.reg != nil && sc.trace != 0 }

// Trace returns the trace ID (0 when invalid).
func (sc SpanContext) Trace() TraceID { return sc.trace }

// SpanRecord is one finished stage span of a trace.
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Stage  string        `json:"stage"`
	Dir    string        `json:"dir,omitempty"` // "read", "write", "ctl"
	Bytes  int           `json:"bytes,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
}

// TraceRecord is one command's collected spans. Root/Start/Dur describe
// the root span (the initiator's end-to-end leg); Slow marks tail
// exemplars (vs head-sampled traces).
type TraceRecord struct {
	ID    TraceID       `json:"id"`
	Root  string        `json:"root"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Slow  bool          `json:"slow,omitempty"`
	Spans []SpanRecord  `json:"spans"`
}

// TraceConfig tunes the tracing plane; zero fields take the defaults.
type TraceConfig struct {
	// SlowPerStage is how many tail exemplars (slowest end-to-end traces)
	// to retain per root stage. Default 8.
	SlowPerStage int
	// SampleEvery head-samples 1 in N non-slow traces as a baseline
	// (default 64; negative disables head sampling entirely).
	SampleEvery int
	// MaxSpans bounds the spans kept per trace (default 32).
	MaxSpans int
	// MaxSampled bounds the head-sample ring (default 64).
	MaxSampled int
}

func (c *TraceConfig) fill() {
	if c.SlowPerStage <= 0 {
		c.SlowPerStage = 8
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 64
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 32
	}
	if c.MaxSampled <= 0 {
		c.MaxSampled = 64
	}
}

// liveCap bounds in-flight traces; doneGrace is how many finished traces
// stay addressable for late spans before eviction.
const (
	liveCap   = 1024
	doneGrace = 128
)

// traceState is a registry's tracing plane.
type traceState struct {
	cfg       TraceConfig
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	mu      sync.Mutex
	live    map[TraceID]*traceEntry
	doneQ   []TraceID // finished traces pending eviction, oldest first
	slow    map[string][]*traceEntry
	sampled []*traceEntry
	sampNxt int
	seen    uint64 // finished traces, for head sampling
}

type traceEntry struct {
	rec      TraceRecord
	done     bool
	retained bool
}

func newTraceState(cfg TraceConfig) *traceState {
	cfg.fill()
	return &traceState{
		cfg:  cfg,
		live: make(map[TraceID]*traceEntry),
		slow: make(map[string][]*traceEntry),
	}
}

func (ts *traceState) reset() {
	ts.mu.Lock()
	ts.live = make(map[TraceID]*traceEntry)
	ts.doneQ = nil
	ts.slow = make(map[string][]*traceEntry)
	ts.sampled = nil
	ts.sampNxt = 0
	ts.seen = 0
	ts.mu.Unlock()
}

// EnableTracing turns the tracing plane on with the given config (zero
// value for defaults). Until called, traced spans degrade to plain stage
// histogram observations with no per-command state.
func (r *Registry) EnableTracing(cfg TraceConfig) {
	if r == nil {
		return
	}
	r.trace.Store(newTraceState(cfg))
}

// DisableTracing turns the tracing plane off and discards its buffers.
func (r *Registry) DisableTracing() {
	if r == nil {
		return
	}
	r.trace.Store(nil)
}

// TracingEnabled reports whether the tracing plane is on.
func (r *Registry) TracingEnabled() bool {
	return r != nil && r.trace.Load() != nil
}

// StartTraced opens a traced span for one stage of one command. The
// histogram observation lands in "stage.<stage>.<dir>" ("stage.<stage>"
// when dir is empty) exactly like StartSpan. If the calling goroutine
// carries a bound span context of this registry, the span joins that
// trace as a child; otherwise it becomes the root of a new trace and its
// End triggers the retention decision. With tracing disabled this is just
// a histogram span.
func (r *Registry) StartTraced(stage, dir string, bytes int) Span {
	if r == nil {
		return Span{}
	}
	sp := Span{t: r.stageTimer(stage, dir), reg: r, start: r.Now()}
	ts := r.trace.Load()
	if ts == nil {
		return sp
	}
	sp.stage, sp.dir, sp.bytes = stage, dir, bytes
	if cur, ok := Current(); ok && cur.reg == r && cur.trace != 0 {
		sp.tr, sp.parent = cur.trace, cur.span
	} else {
		sp.tr = TraceID(ts.nextTrace.Add(1))
		sp.root = true
	}
	sp.id = ts.nextSpan.Add(1)
	return sp
}

// Context returns the span's position for propagation to a downstream
// stage (goroutine binding or a connection's TraceTable).
func (s Span) Context() SpanContext {
	if s.tr == 0 {
		return SpanContext{}
	}
	return SpanContext{reg: s.reg, trace: s.tr, span: s.id}
}

// spanEnd lands a finished span on its trace, creating the live entry on
// first arrival (children of a synchronous chain end before their root).
func (ts *traceState) spanEnd(s Span, end time.Time) {
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Stage:  s.stage,
		Dir:    s.dir,
		Bytes:  s.bytes,
		Start:  s.start,
		Dur:    end.Sub(s.start),
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e := ts.live[s.tr]
	if e == nil {
		if len(ts.live) >= liveCap {
			ts.evictLocked(true)
			if len(ts.live) >= liveCap {
				return // still saturated: drop the span
			}
		}
		e = &traceEntry{rec: TraceRecord{ID: s.tr}}
		ts.live[s.tr] = e
	}
	if len(e.rec.Spans) < ts.cfg.MaxSpans {
		e.rec.Spans = append(e.rec.Spans, rec)
	}
	if !s.root {
		return
	}
	// Root ended: fix the trace's identity and decide retention.
	e.done = true
	e.rec.Root = s.stage
	e.rec.Start = s.start
	e.rec.Dur = rec.Dur
	ts.seen++
	ts.retainLocked(e)
	ts.doneQ = append(ts.doneQ, s.tr)
	if len(ts.doneQ) > doneGrace {
		ts.evictLocked(false)
	}
}

// retainLocked applies the tail-based retention policy to a finished
// trace: keep it as a slow exemplar for its root stage if it beats the
// current slowest-N, else head-sample 1 in SampleEvery into the ring.
func (ts *traceState) retainLocked(e *traceEntry) {
	slow := ts.slow[e.rec.Root]
	if len(slow) < ts.cfg.SlowPerStage {
		e.retained, e.rec.Slow = true, true
		ts.slow[e.rec.Root] = insertByDur(slow, e)
		return
	}
	// slow is sorted ascending by Dur; slow[0] is the cheapest exemplar.
	if e.rec.Dur > slow[0].rec.Dur {
		slow[0].retained = false
		e.retained, e.rec.Slow = true, true
		ts.slow[e.rec.Root] = insertByDur(slow[1:], e)
		return
	}
	if ts.cfg.SampleEvery > 0 && (ts.seen-1)%uint64(ts.cfg.SampleEvery) == 0 {
		e.retained = true
		if len(ts.sampled) < ts.cfg.MaxSampled {
			ts.sampled = append(ts.sampled, e)
			return
		}
		ts.sampled[ts.sampNxt].retained = false
		ts.sampled[ts.sampNxt] = e
		ts.sampNxt = (ts.sampNxt + 1) % ts.cfg.MaxSampled
	}
}

func insertByDur(slow []*traceEntry, e *traceEntry) []*traceEntry {
	i := sort.Search(len(slow), func(j int) bool { return slow[j].rec.Dur >= e.rec.Dur })
	slow = append(slow, nil)
	copy(slow[i+1:], slow[i:])
	slow[i] = e
	return slow
}

// evictLocked trims the live map: finished traces beyond the grace queue
// first; under pressure (force) also the oldest finished entries and, as
// a last resort, nothing — unfinished traces are never dropped here, the
// caller drops the incoming span instead.
func (ts *traceState) evictLocked(force bool) {
	target := doneGrace
	if force {
		target = doneGrace / 2
	}
	for len(ts.doneQ) > target {
		id := ts.doneQ[0]
		ts.doneQ = ts.doneQ[1:]
		delete(ts.live, id)
	}
}

// RecordHop charges a completed fabric-hop share (gateway ingress/egress,
// MB-FWD) to the trace bound to the calling goroutine. Repeated frames of
// the same stage under the same parent span coalesce into one span, so a
// multi-frame PDU costs one record per hop, not one per frame. No-op when
// tracing is off or no trace is bound.
func (r *Registry) RecordHop(stage string, d time.Duration) {
	if r == nil {
		return
	}
	ts := r.trace.Load()
	if ts == nil {
		return
	}
	cur, ok := Current()
	if !ok || cur.reg != r || cur.trace == 0 {
		return
	}
	end := r.Now()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e := ts.live[cur.trace]
	if e == nil {
		if len(ts.live) >= liveCap {
			return
		}
		e = &traceEntry{rec: TraceRecord{ID: cur.trace}}
		ts.live[cur.trace] = e
	}
	for i := range e.rec.Spans {
		sp := &e.rec.Spans[i]
		if sp.Stage == stage && sp.Parent == cur.span {
			sp.Dur += d
			return
		}
	}
	if len(e.rec.Spans) < ts.cfg.MaxSpans {
		e.rec.Spans = append(e.rec.Spans, SpanRecord{
			ID:     ts.nextSpan.Add(1),
			Parent: cur.span,
			Stage:  stage,
			Start:  end.Add(-d),
			Dur:    d,
		})
	}
}

// Traces returns a copy of every retained trace, newest first.
func (r *Registry) Traces() []TraceRecord {
	if r == nil {
		return nil
	}
	ts := r.trace.Load()
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceRecord, 0, len(ts.sampled)+ts.cfg.SlowPerStage*len(ts.slow))
	for _, slow := range ts.slow {
		for _, e := range slow {
			out = append(out, copyTrace(e))
		}
	}
	for _, e := range ts.sampled {
		out = append(out, copyTrace(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// SlowTraces returns up to n retained tail exemplars, slowest first.
func (r *Registry) SlowTraces(n int) []TraceRecord {
	if r == nil || n <= 0 {
		return nil
	}
	ts := r.trace.Load()
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	var out []TraceRecord
	for _, slow := range ts.slow {
		for _, e := range slow {
			out = append(out, copyTrace(e))
		}
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func copyTrace(e *traceEntry) TraceRecord {
	rec := e.rec
	rec.Spans = append([]SpanRecord(nil), e.rec.Spans...)
	sort.Slice(rec.Spans, func(i, j int) bool { return rec.Spans[i].Start.Before(rec.Spans[j].Start) })
	return rec
}

// ---- goroutine-bound span context ----------------------------------------
//
// Within one station a command is serviced by a synchronous call chain on
// one goroutine (plus explicitly hand-off points like the write-back
// applier, which re-bind). Binding the span context to the goroutine lets
// deep instrumentation (device stacks, fabric hops, nested forward
// sessions) join the trace without threading a context through every
// blockdev.Device method signature.

const ctxShards = 64

type ctxShard struct {
	mu sync.Mutex
	m  map[uint64]SpanContext
}

var traceCtx [ctxShards]ctxShard

func init() {
	for i := range traceCtx {
		traceCtx[i].m = make(map[uint64]SpanContext)
	}
}

// fastGoid is set at init when getg passes its self-check; it gates the
// g-pointer fast path in goid. Written once before any concurrent use.
var fastGoid = checkGetg()

// checkGetg validates the architecture-specific getg: non-zero, stable
// across calls and stack growth on one goroutine, distinct across
// goroutines. On any failure goid falls back to the stack-header parse.
func checkGetg() bool {
	a := getg()
	if a == 0 || getg() != a || growGetg(64) != a {
		return false
	}
	var other uintptr
	done := make(chan struct{})
	go func() { other = getg(); close(done) }()
	<-done
	return other != 0 && other != a
}

//go:noinline
func growGetg(n int) uintptr {
	if n == 0 {
		return getg()
	}
	var pad [256]byte
	r := growGetg(n - 1)
	_ = pad[0]
	return r
}

// goid returns a per-goroutine identity key. Fast path: the runtime g
// pointer (unique per live goroutine, stable for its lifetime — g structs
// never move). Fallback: the ID parsed from the runtime.Stack header
// ("goroutine 123 [running]: ..."), ~2µs and serialized process-wide on
// the runtime's print lock, which is why the fast path matters on the
// data path. A g key can be reused after its goroutine exits, but every
// Bind is paired with a Restore, so dead goroutines leave no binding for
// a reused key to inherit.
func goid() uint64 {
	if fastGoid {
		return uint64(getg())
	}
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Bind associates sc with the calling goroutine, returning the previous
// binding for Restore. An invalid sc clears the binding.
func Bind(sc SpanContext) (prev SpanContext, had bool) {
	g := goid()
	sh := &traceCtx[g%ctxShards]
	sh.mu.Lock()
	prev, had = sh.m[g]
	if sc.Valid() {
		sh.m[g] = sc
	} else {
		delete(sh.m, g)
	}
	sh.mu.Unlock()
	return prev, had
}

// Restore reinstates (or clears) the binding saved by Bind.
func Restore(prev SpanContext, had bool) {
	g := goid()
	sh := &traceCtx[g%ctxShards]
	sh.mu.Lock()
	if had {
		sh.m[g] = prev
	} else {
		delete(sh.m, g)
	}
	sh.mu.Unlock()
}

// Current returns the calling goroutine's bound span context, if any.
func Current() (SpanContext, bool) {
	g := goid()
	sh := &traceCtx[g%ctxShards]
	sh.mu.Lock()
	sc, ok := sh.m[g]
	sh.mu.Unlock()
	return sc, ok
}

// ---- per-connection trace carrier ----------------------------------------

// TraceTable is the out-of-band per-connection carrier mapping protocol
// tags (iSCSI initiator task tags) to span contexts: the sender Puts
// before writing the command PDU, the receiver Takes on command receipt.
// It stands in for the wire-format TLV a production deployment would add.
type TraceTable struct {
	mu sync.Mutex
	m  map[uint32]SpanContext
}

// NewTraceTable returns an empty carrier table.
func NewTraceTable() *TraceTable {
	return &TraceTable{m: make(map[uint32]SpanContext)}
}

// Put records the span context travelling with the given task tag.
func (t *TraceTable) Put(tag uint32, sc SpanContext) {
	if t == nil || !sc.Valid() {
		return
	}
	t.mu.Lock()
	t.m[tag] = sc
	t.mu.Unlock()
}

// Take removes and returns the span context for the task tag.
func (t *TraceTable) Take(tag uint32) (SpanContext, bool) {
	if t == nil {
		return SpanContext{}, false
	}
	t.mu.Lock()
	sc, ok := t.m[tag]
	if ok {
		delete(t.m, tag)
	}
	t.mu.Unlock()
	return sc, ok
}

// TraceCarrier is implemented by connections whose two ends share a
// TraceTable (netsim connections; TracedPipe for tests).
type TraceCarrier interface {
	TraceTable() *TraceTable
}

// CarrierOf returns the connection's trace table, or nil when the
// transport does not carry traces.
func CarrierOf(conn net.Conn) *TraceTable {
	if tc, ok := conn.(TraceCarrier); ok {
		return tc.TraceTable()
	}
	return nil
}

// tracedConn overlays a shared TraceTable on an in-memory pipe end.
type tracedConn struct {
	net.Conn
	tbl *TraceTable
}

func (c tracedConn) TraceTable() *TraceTable { return c.tbl }

// TracedPipe is net.Pipe plus a shared trace carrier — the test
// transport for exercising cross-station trace propagation.
func TracedPipe() (net.Conn, net.Conn) {
	c1, c2 := net.Pipe()
	tbl := NewTraceTable()
	return tracedConn{c1, tbl}, tracedConn{c2, tbl}
}

package obs

import (
	"time"
)

// Stage names along the paper's data path (Figures 7 and 10 break the
// end-to-end latency and CPU time down over exactly these hops). Each
// stage records into the registry histogram "stage.<stage>" (optionally
// suffixed ".read"/".write"/".ctl" by direction-aware instrumentation).
const (
	// StageInitiator is the VM-side iSCSI session: command issue to
	// completion, the whole end-to-end latency.
	StageInitiator = "initiator"
	// StageGatewayIngress is the splice plane's ingress storage gateway
	// (NAT capture and redirection into the instance network).
	StageGatewayIngress = "gateway.ingress"
	// StageGatewayEgress is the egress storage gateway back onto the
	// storage network towards the volume service.
	StageGatewayEgress = "gateway.egress"
	// StageMBForward is a transparent MB-FWD hop (passive middle-box
	// forwarding without terminating the connection).
	StageMBForward = "mbfwd"
	// StageTarget is the back-end iSCSI target: command receipt to status
	// sent, including medium service time.
	StageTarget = "target"
)

// StagePrefix prefixes every stage histogram name in a Registry.
const StagePrefix = "stage."

// RelayServiceStage names a relay's service-chain span (passive hook or
// active journal-ack processing, inclusive of the downstream forward).
func RelayServiceStage(relay string) string {
	if relay == "" {
		return "relay.service"
	}
	return "relay." + relay + ".service"
}

// RelayForwardStage names a relay's downstream-forward span (the
// pseudo-client session towards the next station or the target).
func RelayForwardStage(relay string) string {
	if relay == "" {
		return "relay.forward"
	}
	return "relay." + relay + ".forward"
}

// Span measures one stage of one command; obtain with StartSpan (plain
// histogram span) or StartTraced (also emits a SpanRecord into the
// registry's trace buffer). The zero Span is a no-op.
type Span struct {
	t     Timer
	start time.Time
	reg   *Registry

	// trace fields, set by StartTraced when tracing is enabled
	tr     TraceID
	id     uint64
	parent uint64
	stage  string
	dir    string
	bytes  int
	root   bool
}

// spanKey names a stage histogram the way span call sites do, unjoined.
type spanKey struct{ stage, dir string }

// spanTable is one immutable generation of the span-start cache. gen counts
// the invalidations (Reset, RetireInstance) before it, so a look-up that
// resolved its histogram under an older table cannot publish it into a newer
// one. Publishing copies the map, which the series cap keeps small next to
// the spans that then read it for free.
type spanTable struct {
	gen uint64
	m   map[spanKey]*Histogram
}

// stageTimer resolves "stage.<stage>[.<dir>]" to its histogram. Every span
// of every command starts here, so the name is joined and looked up in the
// sharded series maps once per (stage, dir); afterwards a span start is one
// atomic load and one map probe, with no allocation and no lock. A series
// the cap refused is not cached: each further span retries the creation and
// counts in DroppedMetric, as before.
func (r *Registry) stageTimer(stage, dir string) Timer {
	tbl := r.spans.Load()
	key := spanKey{stage, dir}
	if h := tbl.m[key]; h != nil {
		return Timer{h: h}
	}
	name := StagePrefix + stage
	if dir != "" {
		name += "." + dir
	}
	h := r.Histogram(name)
	if h != nil {
		r.cacheStageTimer(tbl.gen, key, h)
	}
	return Timer{h: h}
}

// cacheStageTimer publishes key → h unless the cache was invalidated since
// the caller loaded the table of generation gen. Reset empties the series
// maps first and invalidates second, so an h resolved from the old maps
// always meets a newer generation here (or is wiped by the invalidation that
// follows) and a span started after Reset returns lands in the new histogram.
func (r *Registry) cacheStageTimer(gen uint64, key spanKey, h *Histogram) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	cur := r.spans.Load()
	if cur.gen != gen {
		return
	}
	m := make(map[spanKey]*Histogram, len(cur.m)+1)
	for k, v := range cur.m {
		m[k] = v
	}
	m[key] = h
	r.spans.Store(&spanTable{gen: gen, m: m})
}

// dropSpans invalidates the cached resolutions of the stages dropped reports
// true for (nil: all of them), as a new table generation.
func (r *Registry) dropSpans(dropped func(stage string) bool) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	cur := r.spans.Load()
	next := &spanTable{gen: cur.gen + 1}
	if dropped != nil {
		next.m = make(map[spanKey]*Histogram, len(cur.m))
		for k, h := range cur.m {
			if !dropped(k.stage) {
				next.m[k] = h
			}
		}
	}
	r.spans.Store(next)
}

// StartSpan opens a span recording into "stage.<stage>". On a nil
// registry the span is a no-op. Timestamps come from the registry clock
// (Now).
func (r *Registry) StartSpan(stage string) Span {
	if r == nil {
		return Span{}
	}
	return Span{t: r.stageTimer(stage, ""), reg: r, start: r.Now()}
}

// Abort discards a traced root span's trace without recording anything —
// the failed-command path, where a half-collected trace would otherwise
// linger in the live buffer. Plain and child spans just drop silently.
func (s Span) Abort() {
	if s.tr == 0 || !s.root {
		return
	}
	ts := s.reg.trace.Load()
	if ts == nil {
		return
	}
	ts.mu.Lock()
	delete(ts.live, s.tr)
	ts.mu.Unlock()
}

// End records the span's elapsed time into its stage histogram and, for
// traced spans, lands the SpanRecord on its trace. Ending the root span
// triggers the trace's retention decision.
func (s Span) End() {
	if s.t.h == nil && s.tr == 0 {
		return
	}
	end := s.reg.Now()
	if s.t.h != nil {
		s.t.h.Observe(end.Sub(s.start))
	}
	if s.tr != 0 {
		if ts := s.reg.trace.Load(); ts != nil {
			ts.spanEnd(s, end)
		}
	}
}

package obs

import (
	"sync"
	"testing"
	"time"
)

// spanCount is how many spans the registry's exposed histogram for
// (stage, dir) holds — looked up by name, the way /metrics does, so it reads
// what an operator would see and not what a span start has cached.
func spanCount(r *Registry, name string) int {
	return r.Histogram(name).Snapshot().Count
}

// TestSpanAfterResetLandsInNewHistogram pins the invalidation of the
// span-start cache: Reset and RetireInstance replace the exposed series, and
// the next span must record into the replacement, not the cached original.
func TestSpanAfterResetLandsInNewHistogram(t *testing.T) {
	r := NewRegistry()
	const name = "stage.relay.mb1.service.write"
	span := func() { r.StartTraced(RelayServiceStage("mb1"), "write", 4096).End() }

	span()
	span()
	if got := spanCount(r, name); got != 2 {
		t.Fatalf("before Reset: %d spans, want 2", got)
	}
	r.Reset()
	span()
	if got := spanCount(r, name); got != 1 {
		t.Errorf("after Reset: exposed histogram holds %d spans, want 1", got)
	}
	other := func() { r.StartTraced(RelayServiceStage("mb10"), "write", 4096).End() }
	other()
	if n := r.RetireInstance("mb1"); n != 1 {
		t.Fatalf("RetireInstance removed %d series, want 1 (mb10 is another instance)", n)
	}
	span()
	other()
	if got := spanCount(r, name); got != 1 {
		t.Errorf("after RetireInstance: exposed histogram holds %d spans, want 1", got)
	}
	if got := spanCount(r, "stage.relay.mb10.service.write"); got != 2 {
		t.Errorf("a surviving instance's histogram holds %d spans, want 2", got)
	}

	// StartSpan shares the cache under the empty dir.
	r.StartSpan("gateway.ingress").End()
	r.Reset()
	r.StartSpan("gateway.ingress").End()
	if got := spanCount(r, "stage.gateway.ingress"); got != 1 {
		t.Errorf("StartSpan after Reset: %d spans, want 1", got)
	}
}

// TestSpanResetRace runs Reset against span starts on the same and on fresh
// (stage, dir) pairs. Whatever the interleaving, a look-up that resolved its
// histogram before a Reset must not publish it after: once everything has
// stopped and one last Reset has returned, every stage's next span has to be
// visible in the exposed series. Run with -race.
func TestSpanResetRace(t *testing.T) {
	r := NewRegistry()

	// The losing interleaving, replayed by hand: a span start misses the
	// cache and resolves its histogram, Reset runs to completion, and only
	// then does the span start publish what it resolved.
	tbl := r.spans.Load()
	stale := r.Histogram("stage.target.read")
	r.Reset()
	r.cacheStageTimer(tbl.gen, spanKey{"target", "read"}, stale)
	r.StartTraced("target", "read", 512).End()
	if got := spanCount(r, "stage.target.read"); got != 1 {
		t.Fatalf("late publication survived Reset: exposed histogram holds %d spans, want 1", got)
	}

	stages := []string{"initiator", "target", "relay.a.service", "relay.a.forward", "mbfwd"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.StartTraced(stages[(w+i)%len(stages)], "read", 512).End()
			}
		}(w)
	}
	for i := 0; i < 300; i++ {
		r.Reset()
	}
	close(stop)
	wg.Wait()
	r.Reset()
	for _, st := range stages {
		r.StartTraced(st, "read", 512).End()
		if got := spanCount(r, StagePrefix+st+".read"); got != 1 {
			t.Errorf("%s: exposed histogram holds %d spans after the final Reset, want 1", st, got)
		}
	}
}

// TestCappedSpanCountsEveryAttempt: a stage series the cap refuses is not
// cached, so the drop counter keeps counting spans that went unrecorded —
// and the span starts recording once room appears.
func TestCappedSpanCountsEveryAttempt(t *testing.T) {
	r := NewRegistry()
	setSeriesLimit(r, 2)
	r.Counter("relay.mb0.busy_ns").Inc() // these two fill the registry
	r.Gauge("relay.mb0.sessions").Set(1)
	for i := 0; i < 5; i++ {
		sp := r.StartTraced("target", "write", 4096)
		sp.End() // refused span: must be a harmless no-op
	}
	if got := r.Counter(DroppedMetric).Value(); got != 5 {
		t.Errorf("%s = %d after 5 refused spans, want 5", DroppedMetric, got)
	}
	// Frees two slots; the retirement counter takes one, the stage the other.
	if n := r.RetireInstance("mb0"); n != 2 {
		t.Fatalf("RetireInstance removed %d series, want 2", n)
	}
	r.StartTraced("target", "write", 4096).End()
	r.StartTraced("target", "write", 4096).End()
	if got := spanCount(r, "stage.target.write"); got != 2 {
		t.Errorf("after room appeared: %d spans recorded, want 2", got)
	}
	if got := r.Counter(DroppedMetric).Value(); got != 5 {
		t.Errorf("%s = %d, want still 5", DroppedMetric, got)
	}
}

// TestSetClockGovernsSpans: with an injected clock both span kinds measure
// exactly what that clock says, cached resolution or not, and a traced
// span's record starts at the injected instant.
func TestSetClockGovernsSpans(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(100, 0)
	setClock(r, func() time.Time { return now })
	r.EnableTracing(TraceConfig{SampleEvery: 1})
	for i := 1; i <= 3; i++ { // the first resolves, the rest hit the cache
		sp := r.StartTraced("initiator", "write", 4096)
		began := now
		now = now.Add(time.Duration(i) * time.Millisecond)
		sp.End()
		s := r.Histogram("stage.initiator.write").Snapshot()
		if s.Count != i || s.Max != time.Duration(i)*time.Millisecond {
			t.Fatalf("span %d: count %d max %v, want %d and exactly %dms", i, s.Count, s.Max, i, i)
		}
		trs := r.Traces()
		if len(trs) == 0 || !trs[0].Start.Equal(began) || trs[0].Dur != time.Duration(i)*time.Millisecond {
			t.Fatalf("span %d: trace start/dur = %+v, want %v / %dms", i, trs, began, i)
		}
	}
	// Removing the clock returns spans to real time.
	setClock(r, nil)
	sp := r.StartSpan("gateway.egress")
	sp.End()
	if d := r.Histogram("stage.gateway.egress").Snapshot().Max; d < 0 || d > time.Second {
		t.Errorf("real-clock span measured %v", d)
	}
}

// TestRegistryClockIsWallTimeOnOneTimeline: the registry clock reads only
// the monotonic clock, yet the record handed to the trace plane must still
// say when, in wall time, the span began — and an event logged next to the
// span is stamped by the same clock, so a dump's two timelines agree.
func TestRegistryClockIsWallTimeOnOneTimeline(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(TraceConfig{SampleEvery: 1})
	before := time.Now()
	r.StartTraced("initiator", "read", 512).End()
	r.Eventf("test", "after the span")
	after := time.Now()
	trs := r.Traces()
	evs := r.Events()
	if len(trs) != 1 || len(trs[0].Spans) != 1 || len(evs) != 1 {
		t.Fatalf("traces = %+v, events = %+v, want one trace of one span and one event", trs, evs)
	}
	for _, at := range []time.Time{trs[0].Start, trs[0].Spans[0].Start, evs[0].Time} {
		// Compare wall readings only (Round(0) strips the monotonic one).
		w := at.Round(0)
		if w.Before(before.Round(0).Add(-time.Millisecond)) || w.After(after.Round(0).Add(time.Millisecond)) {
			t.Errorf("timestamp %v not within 1ms of [%v, %v]", w, before, after)
		}
	}
	if end := trs[0].Start.Add(trs[0].Dur).Round(0); evs[0].Time.Round(0).Before(end) {
		t.Errorf("event at %v precedes the end %v of the span logged before it", evs[0].Time, end)
	}
}

package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestSLOWindowRollOver drives a tracker on a fake clock: violations in
// an early slot must age out of the rolling window once the ring rotates
// past them, and the burn gauge must follow.
func TestSLOWindowRollOver(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })

	const target = 2 * time.Millisecond
	tr := NewSLOTracker(r, "t1.enc", target, SLOConfig{
		Window: 6 * time.Second, Slots: 6, BudgetPermille: 100,
	})
	h := r.Histogram("stage.relay.t1-enc-0.service.write")
	tr.Watch("stage.relay.t1-enc-0.service.write")

	// Slot 1: ten ops, half over target -> burn 5x the 10% budget.
	for i := 0; i < 5; i++ {
		h.Observe(time.Millisecond)
		h.Observe(5 * time.Millisecond)
	}
	st := tr.Tick(now)
	if st.WindowOps != 10 || st.Violations != 5 {
		t.Fatalf("slot1: ops=%d viol=%d, want 10/5", st.WindowOps, st.Violations)
	}
	if st.BurnPermille != 5000 {
		t.Errorf("slot1 burn = %d, want 5000", st.BurnPermille)
	}
	if got := r.Gauge("slo.t1.enc.burn_permille").Value(); got != 5000 {
		t.Errorf("burn gauge = %d, want 5000", got)
	}
	// The window keeps bucket counts, not samples: p99 is exact to one
	// bucket (1/16), while ops, violations and burn stay exact because
	// every sample lies far from the 2ms target.
	withinBucket(t, "p99 gauge", time.Duration(r.Gauge("slo.t1.enc.p99_us").Value())*time.Microsecond, 5*time.Millisecond)
	if got := r.Gauge("slo.t1.enc.target_us").Value(); got != target.Microseconds() {
		t.Errorf("target gauge = %d, want %d", got, target.Microseconds())
	}

	// Three slots later: add clean ops; the old violations still count.
	now = now.Add(3 * time.Second)
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	st = tr.Tick(now)
	if st.WindowOps != 20 || st.Violations != 5 {
		t.Fatalf("mid-window: ops=%d viol=%d, want 20/5", st.WindowOps, st.Violations)
	}

	// Past the window: the first slot (and its violations) must roll off.
	now = now.Add(3500 * time.Millisecond)
	st = tr.Tick(now)
	if st.Violations != 0 {
		t.Errorf("after roll-over: violations = %d, want 0", st.Violations)
	}
	if st.WindowOps != 10 {
		t.Errorf("after roll-over: ops = %d, want 10 (only the clean slot)", st.WindowOps)
	}
	if st.BurnPermille != 0 {
		t.Errorf("after roll-over: burn = %d, want 0", st.BurnPermille)
	}

	// Idle gap far beyond the window: everything expires.
	now = now.Add(time.Minute)
	st = tr.Tick(now)
	if st.WindowOps != 0 || st.BurnPermille != 0 {
		t.Errorf("after idle gap: ops=%d burn=%d, want 0/0", st.WindowOps, st.BurnPermille)
	}

	// At the target is not over it; the first bucket past the target's is.
	h.Observe(target)
	h.Observe(time.Duration(bucketLow(bucketOf(int64(target)) + 1)))
	if st = tr.Tick(now); st.WindowOps != 2 || st.Violations != 1 {
		t.Errorf("at the target's edge: ops=%d viol=%d, want 2/1", st.WindowOps, st.Violations)
	}
}

// TestSeriesLimitAndRetire covers the cardinality bound: past the series
// cap new names are rejected (nil-safe handles, obs.metrics_dropped
// counts them) and RetireInstance frees an instance's series for reuse.
func TestSeriesLimitAndRetire(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(8)
	for i := 0; i < 8; i++ {
		r.Counter(fmt.Sprintf("relay.inst-%d.busy_ns", i)).Inc()
	}
	if c := r.Counter("one.too.many"); c != nil {
		t.Errorf("counter beyond the series limit not rejected")
	}
	r.Counter("one.too.many").Inc() // nil-safe no-op
	if g := r.Gauge("also.too.many"); g != nil {
		t.Errorf("gauge beyond the series limit not rejected")
	}
	if h := r.Histogram("hist.too.many"); h != nil {
		t.Errorf("histogram beyond the series limit not rejected")
	}
	// Every rejected lookup counts: two counter attempts, one gauge, one
	// histogram.
	if got := r.Counter(DroppedMetric).Value(); got != 4 {
		t.Errorf("%s = %d, want 4", DroppedMetric, got)
	}
	// Existing series stay writable at the cap.
	r.Counter("relay.inst-3.busy_ns").Inc()
	if got := r.Counter("relay.inst-3.busy_ns").Value(); got != 2 {
		t.Errorf("existing counter at cap = %d, want 2", got)
	}

	// Retiring an instance deletes its series (all three prefixes) and
	// makes room for new ones.
	r2 := NewRegistry()
	r2.SetSeriesLimit(6)
	r2.Counter("relay.t1-enc-0.busy_ns").Add(7)
	r2.Gauge("orch.member.t1-enc-0.util_permille").Set(500)
	r2.Timer("stage.relay.t1-enc-0.service.read").Observe(time.Millisecond)
	r2.Counter("relay.t1-enc-1.busy_ns").Inc() // survivor
	if n := r2.RetireInstance("t1-enc-0"); n != 3 {
		t.Fatalf("RetireInstance removed %d series, want 3", n)
	}
	if got := r2.Counter(RetiredMetric).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", RetiredMetric, got)
	}
	if got := r2.Counter("relay.t1-enc-1.busy_ns").Value(); got != 1 {
		t.Errorf("survivor counter lost: %d", got)
	}
	// The retired counter name starts fresh.
	if got := r2.Counter("relay.t1-enc-0.busy_ns").Value(); got != 0 {
		t.Errorf("retired counter kept value %d", got)
	}
}

// TestTraceTailRetention exercises the retention policy directly: slow
// roots become exemplars (evicting cheaper ones), non-slow traces are
// head-sampled 1-in-N, and Abort discards a root's trace entirely.
func TestTraceTailRetention(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { return now })
	r.EnableTracing(TraceConfig{SlowPerStage: 2, SampleEvery: 10})

	run := func(d time.Duration) {
		sp := r.StartTraced("initiator", "read", 4096)
		now = now.Add(d)
		sp.End()
	}
	// Two slow commands fill the exemplar slots, then a burst of fast ones
	// that never displace them — those only survive via 1-in-10 sampling.
	run(100 * time.Millisecond)
	run(90 * time.Millisecond)
	for i := 0; i < 18; i++ {
		run(time.Millisecond)
	}
	slow := r.SlowTraces(10)
	if len(slow) != 2 {
		t.Fatalf("retained %d slow traces, want 2 (SlowPerStage)", len(slow))
	}
	if slow[0].Dur != 100*time.Millisecond || slow[1].Dur != 90*time.Millisecond {
		t.Errorf("slow exemplars = %v/%v, want 100ms/90ms", slow[0].Dur, slow[1].Dur)
	}
	if !slow[0].Slow {
		t.Error("exemplar not marked Slow")
	}
	all := r.Traces()
	if len(all) <= 2 {
		t.Errorf("no head samples retained: %d total traces", len(all))
	}
	headSampled := 0
	for _, tr := range all {
		if !tr.Slow {
			headSampled++
			if tr.Dur != time.Millisecond {
				t.Errorf("head sample dur = %v, want 1ms", tr.Dur)
			}
		}
	}
	if headSampled != 1 {
		t.Errorf("head-sampled %d of 18 fast traces at 1-in-10, want 1", headSampled)
	}

	// Abort: a failed command leaves nothing behind.
	r.EnableTracing(TraceConfig{}) // reset plane
	sp := r.StartTraced("initiator", "read", 512)
	now = now.Add(time.Hour) // would dominate any exemplar list
	sp.Abort()
	if got := r.SlowTraces(1); len(got) != 0 {
		t.Errorf("aborted trace retained: %+v", got)
	}
}

// TestTraceHeadSampleEvery pins the head-sampling stride: of the finished
// traces, the 1st, (N+1)th, (2N+1)th… are picked — every one for N = 1,
// which `seen % N == 1` never matched.
func TestTraceHeadSampleEvery(t *testing.T) {
	for _, tc := range []struct{ every, want int }{{1, 128}, {2, 64}, {64, 2}} {
		r := NewRegistry()
		now := time.Unix(0, 0)
		r.SetClock(func() time.Time { return now })
		r.EnableTracing(TraceConfig{SlowPerStage: 1, SampleEvery: tc.every, MaxSampled: 256})
		run := func(d time.Duration) {
			sp := r.StartTraced("initiator", "read", 4096)
			now = now.Add(d)
			sp.End()
		}
		run(time.Second) // takes the one exemplar slot; the rest can only be sampled
		for i := 0; i < 128; i++ {
			run(time.Millisecond)
		}
		sampled := 0
		for _, tr := range r.Traces() {
			if !tr.Slow {
				sampled++
			}
		}
		if sampled != tc.want {
			t.Errorf("SampleEvery=%d: head-sampled %d of 128 traces, want %d", tc.every, sampled, tc.want)
		}
	}
}

// TestTracedPipeCarrier checks the out-of-band ITT carrier: contexts put
// on one end are taken on the other, and Take consumes.
func TestTracedPipeCarrier(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(TraceConfig{})
	c1, c2 := TracedPipe()
	defer c1.Close()
	defer c2.Close()

	tbl1, tbl2 := CarrierOf(c1), CarrierOf(c2)
	if tbl1 == nil || tbl1 != tbl2 {
		t.Fatal("pipe ends do not share one trace table")
	}
	sp := r.StartTraced("initiator", "read", 0)
	tbl1.Put(42, sp.Context())
	sc, ok := tbl2.Take(42)
	if !ok || sc.Trace() != sp.Context().Trace() {
		t.Fatalf("Take(42) = %+v, %v", sc, ok)
	}
	if _, ok := tbl2.Take(42); ok {
		t.Error("Take did not consume the entry")
	}
	if CarrierOf(nil) != nil {
		t.Error("CarrierOf(nil) != nil")
	}
	sp.End()
}

// TestPrometheusGolden locks the full text exposition format against a
// golden file: HELP/TYPE for every series, cumulative le buckets with
// +Inf, _sum and _count. Regenerate with -update-golden.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() time.Time { return time.Unix(42, 0) })
	r.Counter("nat.rewrites").Add(3)
	r.Counter("relay.mb1.busy_ns").Add(1500000)
	r.Gauge("journal.used_bytes").Set(128)
	g := r.Gauge("slo.t1.enc.burn_permille")
	g.Set(250)
	h := r.Histogram("stage.target.read")
	for _, d := range []time.Duration{
		30 * time.Microsecond,
		400 * time.Microsecond,
		2 * time.Millisecond,
		2 * time.Millisecond,
		40 * time.Millisecond,
		3 * time.Second,
		10 * time.Second,
	} {
		h.Observe(d)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Add(5)
	r.Timer("z").Observe(time.Millisecond)
	r.Eventf("k", "msg")
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Error("nil registry leaked state")
	}
	if r.Timer("z").Enabled() {
		t.Error("nil registry timer should be disabled")
	}
	if sp := r.StartSpan("s"); true {
		sp.End() // must not panic
	}
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	r.Reset() // must not panic
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("reqs") != c {
		t.Error("same name should return same counter")
	}

	g := r.Gauge("depth")
	g.Set(10)
	if v := g.Add(-3); v != 7 {
		t.Errorf("Add returned %d, want 7", v)
	}
	g.Add(20)
	g.Add(-25)
	if g.Value() != 2 {
		t.Errorf("gauge = %d, want 2", g.Value())
	}
	if g.High() != 27 {
		t.Errorf("high-water = %d, want 27", g.High())
	}
}

func TestSpanRecordsIntoStageHistogram(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(100, 0)
	setClock(r, func() time.Time { return now })
	sp := r.StartSpan("gateway.ingress")
	now = now.Add(time.Millisecond)
	sp.End()
	s := r.Histogram(StagePrefix + "gateway.ingress").Snapshot()
	if s.Count != 1 {
		t.Fatalf("span count = %d, want 1", s.Count)
	}
	if s.Mean != time.Millisecond {
		t.Errorf("span mean = %v, want exactly 1ms (fake clock)", s.Mean)
	}
}

func TestStageNames(t *testing.T) {
	if got := RelayServiceStage("mb1"); got != "relay.mb1.service" {
		t.Errorf("RelayServiceStage = %q", got)
	}
	if got := RelayForwardStage(""); got != "relay.forward" {
		t.Errorf("RelayForwardStage(\"\") = %q", got)
	}
}

func TestEventRingBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxEvents+37; i++ {
		r.Eventf("k", "event %d", i)
	}
	evs := r.Events()
	if len(evs) != maxEvents {
		t.Fatalf("len(events) = %d, want %d", len(evs), maxEvents)
	}
	// Oldest surviving event is #37; newest is the last appended.
	if want := fmt.Sprintf("event %d", 37); evs[0].Msg != want {
		t.Errorf("first event = %q, want %q", evs[0].Msg, want)
	}
	if want := fmt.Sprintf("event %d", maxEvents+36); evs[len(evs)-1].Msg != want {
		t.Errorf("last event = %q, want %q", evs[len(evs)-1].Msg, want)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// get-or-create races, hot-path updates, and snapshot readers — and then
// checks nothing was lost. Run with -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.counter").Inc()
				r.Counter(fmt.Sprintf("per.worker.%d", w)).Inc()
				r.Gauge("shared.gauge").Add(1)
				r.Gauge("shared.gauge").Add(-1)
				r.Timer("shared.latency").Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					r.Eventf("worker", "w%d i%d", w, i)
					_ = r.Snapshot()
					var buf bytes.Buffer
					_ = r.WriteText(&buf)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("shared.counter").Value(); got != workers*iters {
		t.Errorf("shared counter = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter(fmt.Sprintf("per.worker.%d", w)).Value(); got != iters {
			t.Errorf("worker %d counter = %d, want %d", w, got, iters)
		}
	}
	if got := r.Gauge("shared.gauge").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("shared.latency").Snapshot().Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("nat.rewrites").Add(3)
	r.Gauge("journal.used_bytes").Set(128)
	r.Timer("stage.target.read").Observe(2 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP storm_nat_rewrites storm counter nat.rewrites",
		"# TYPE storm_nat_rewrites counter",
		"storm_nat_rewrites 3",
		"# TYPE storm_journal_used_bytes gauge",
		"storm_journal_used_bytes 128",
		"storm_journal_used_bytes_high 128",
		"# TYPE storm_stage_target_read_seconds histogram",
		`storm_stage_target_read_seconds_bucket{le="0.001"} 0`,
		`storm_stage_target_read_seconds_bucket{le="0.0025"} 1`,
		`storm_stage_target_read_seconds_bucket{le="+Inf"} 1`,
		"storm_stage_target_read_seconds_sum 0.002",
		"storm_stage_target_read_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text exposition missing %q:\n%s", want, out)
		}
	}
}

// hookWriter runs fn once, on the first write that contains marker — the
// moment a histogram's rows are being rendered — and then buffers as usual.
type hookWriter struct {
	bytes.Buffer
	marker string
	fn     func()
}

func (w *hookWriter) Write(p []byte) (int, error) {
	if w.fn != nil && bytes.Contains(p, []byte(w.marker)) {
		fn := w.fn
		w.fn = nil
		fn()
	}
	return w.Buffer.Write(p)
}

// TestWriteTextOneReadPerHistogram: samples that arrive while a histogram
// is being rendered must not make a finite `le` row exceed `+Inf` (the
// rows, `+Inf` and `_count` all come from one read of its buckets), and a
// series retired meanwhile must not be re-created by the exposition.
func TestWriteTextOneReadPerHistogram(t *testing.T) {
	r := NewRegistry()
	const name = "stage.relay.mb1.service.write"
	h := r.Histogram(name)
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	const pn = "storm_stage_relay_mb1_service_write_seconds"
	w := &hookWriter{marker: "# HELP " + pn, fn: func() {
		for i := 0; i < 5; i++ {
			h.Observe(time.Microsecond)
		}
	}}
	if err := r.WriteText(w); err != nil {
		t.Fatal(err)
	}
	prev, rows, count := -1, 0, -1
	for _, line := range strings.Split(w.String(), "\n") {
		var v int
		switch {
		case strings.HasPrefix(line, pn+"_bucket"):
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("cumulative rows decrease: %q after %d", line, prev)
			}
			prev, rows = v, rows+1
		case strings.HasPrefix(line, pn+"_count "):
			if _, err := fmt.Sscanf(line, pn+"_count %d", &count); err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
		}
	}
	if rows != len(DefaultBuckets)+1 || prev != count {
		t.Errorf("%d rows ending at +Inf %d, _count %d; want %d rows ending at _count:\n%s",
			rows, prev, count, len(DefaultBuckets)+1, w.String())
	}

	w = &hookWriter{marker: "# HELP " + pn, fn: func() { r.RetireInstance("mb1") }}
	if err := r.WriteText(w); err != nil {
		t.Fatal(err)
	}
	if hists := r.Snapshot().Histograms; len(hists) != 0 {
		t.Errorf("exposition re-created retired series %v", hists)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(9)
	r.Timer("stage.initiator.read").Observe(time.Millisecond)
	r.Eventf("kind", "hello")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if snap.Counters["c"] != 1 || snap.Gauges["g"].Value != 9 {
		t.Errorf("snapshot lost values: %+v", snap)
	}
	if snap.Histograms["stage.initiator.read"].Count != 1 {
		t.Error("snapshot lost histogram")
	}
	if len(snap.Events) != 1 || snap.Events[0].Msg != "hello" {
		t.Errorf("snapshot lost events: %+v", snap.Events)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":      "storm_hits 1",
		"/metrics.json": `"hits": 1`,
		"/":             "storm metrics",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("GET %s: missing %q in %q", path, want, buf.String())
		}
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// GaugeSnapshot is a gauge's point-in-time value and high-water mark.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// Snapshot is a point-in-time copy of every metric and event in a
// Registry, suitable for JSON encoding (durations encode as nanoseconds).
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]GaugeSnapshot `json:"gauges"`
	Histograms map[string]Summary       `json:"histograms"`
	Events     []Event                  `json:"events,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]GaugeSnapshot),
		Histograms: make(map[string]Summary),
	}
	counters, gauges, hists := r.handles()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = GaugeSnapshot{Value: g.Value(), High: g.High()}
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	snap.Events = r.Events()
	return snap
}

// handles copies the registry's live series out of the shards. Exposition
// reads through these, never through the get-or-create accessors, so it
// cannot bring back a series retired meanwhile. Nil-safe.
func (r *Registry) handles() (map[string]*Counter, map[string]*Gauge, map[string]*Histogram) {
	counters := make(map[string]*Counter)
	gauges := make(map[string]*Gauge)
	hists := make(map[string]*Histogram)
	if r == nil {
		return counters, gauges, hists
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for k, v := range sh.counters {
			counters[k] = v
		}
		for k, v := range sh.gauges {
			gauges[k] = v
		}
		for k, v := range sh.hists {
			hists[k] = v
		}
		sh.mu.RUnlock()
	}
	return counters, gauges, hists
}

// WriteJSON writes an indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DefaultBuckets is the latency bucket ladder used for Prometheus
// histogram exposition (upper bounds, ascending). It spans the test bed's
// modelled path costs (tens of µs) up to fault-injection stalls.
var DefaultBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
}

// WriteText writes the registry in the Prometheus text exposition format:
// HELP and TYPE lines for every metric, counters and gauges as single
// samples, histograms with cumulative `le` buckets (including +Inf) plus
// `_sum` and `_count`. Names are prefixed "storm_" and sanitized; output
// is sorted for determinism. Each histogram's rows come from one read of
// its buckets, so they never decrease and `+Inf` equals `_count`.
func (r *Registry) WriteText(w io.Writer) error {
	counters, gauges, hists := r.handles()
	for _, name := range sortedKeys(counters) {
		pn := promName(name)
		_, err := fmt.Fprintf(w, "# HELP %s storm counter %s\n# TYPE %s counter\n%s %d\n",
			pn, name, pn, pn, counters[name].Value())
		if err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		pn := promName(name)
		g := gauges[name]
		_, err := fmt.Fprintf(w,
			"# HELP %s storm gauge %s\n# TYPE %s gauge\n%s %d\n# HELP %s_high high-water mark of %s\n# TYPE %s_high gauge\n%s_high %d\n",
			pn, name, pn, pn, g.Value(), pn, name, pn, pn, g.High())
		if err != nil {
			return err
		}
	}
	var c [numBuckets]uint64
	for _, name := range sortedKeys(hists) {
		pn := promName(name) + "_seconds"
		h := hists[name]
		n := h.load(&c)
		sum := time.Duration(h.sum.Load())
		if _, err := fmt.Fprintf(w, "# HELP %s storm latency histogram %s\n# TYPE %s histogram\n", pn, name, pn); err != nil {
			return err
		}
		for _, b := range DefaultBuckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, b.Seconds(), countAtOrBelow(&c, b)); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			pn, n, pn, sum.Seconds(), pn, n)
		if err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName maps a dotted registry name to a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("storm_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Handler serves the registry over HTTP: "/metrics" (Prometheus text),
// "/metrics.json" (JSON snapshot), "/traces" (retained traces, JSON),
// and "/" (a short index).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		traces := r.Traces()
		if traces == nil {
			traces = []TraceRecord{}
		}
		b, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(append(b, '\n'))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "storm metrics: /metrics (Prometheus text), /metrics.json (JSON snapshot), /traces (retained traces)")
	})
	return mux
}

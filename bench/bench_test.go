package main

import (
	"os"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for a fraction of a second in both passes
// and the layer harness at tiny counts, and holds what they emit against
// BENCHMARK.json: every declared metric on every workload, nothing
// undeclared, well-formed names, and no failed operation or check.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	declared := func(ms []specMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			if !metricName.MatchString(m.Name) {
				t.Errorf("malformed metric name %q", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	endToEnd, perLayer := declared(sp.EndToEnd), declared(sp.PerLayer)

	// Journals fsync on every append; keep the smoke run off the disk.
	stateRoot := t.TempDir()
	if fsName("/dev/shm") == "tmpfs" {
		if dir, err := os.MkdirTemp("/dev/shm", "storm-bench-smoke-"); err == nil {
			t.Cleanup(func() { os.RemoveAll(dir) })
			stateRoot = dir
		}
	}
	h := &harness{stateRoot: stateRoot, realDir: t.TempDir(), scale: 50}
	h.runAll()
	for _, err := range h.errs {
		t.Errorf("layer harness: %v", err)
	}

	tm := timing{measure: 80 * time.Millisecond, window: 40 * time.Millisecond, warmup: 10 * time.Millisecond, minSetups: 1, maxSetups: 1}
	for _, decl := range sp.Workloads {
		w, ok := workloadByName(decl.Name)
		if !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %q", decl.Name)
			continue
		}
		e := env{seed: 1, stateRoot: stateRoot}
		res, err := endToEndPass(w, e, tm)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(t, w.name+" end to end", res, endToEnd)

		res, _, err = tracedPass(w, e, tm)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for name, m := range h.metrics {
			res.Metrics[name] = m
		}
		check(t, w.name+" per layer", res, perLayer)
	}
}

func check(t *testing.T, what string, res result, declared map[string]string) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d, correct %v", what, res.Attempted, res.Failed, res.Correct)
	}
	for name, unit := range declared {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

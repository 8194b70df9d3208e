package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// sections splits a results file into its top-level sections.
func sections(t *testing.T, data []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("results file does not parse: %v", err)
	}
	return m
}

// TestFig4RunKeepsOtherSections: a routing (Figure 4) run over the
// checked-in results file rewrites only the sections it produces and leaves
// every other section byte-identical — the dated histories of suites this
// command no longer runs included.
func TestFig4RunKeepsOtherSections(t *testing.T) {
	orig, err := os.ReadFile("../../BENCH_results.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"routing"}, opts{ops: 20}, path); err != nil {
		t.Fatalf("routing run: %v", err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, after := sections(t, orig), sections(t, out)
	written := map[string]bool{"fio_ops": true, "routing": true, "observability": true}
	for name, want := range before {
		if written[name] {
			continue
		}
		if got, ok := after[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("section %q changed by a routing run", name)
		}
	}
	if _, ok := after["routing"]; !ok {
		t.Error("routing run wrote no routing section")
	}
}

// TestWriteResultsAppendsHistories: each run's dated suite entry is appended
// to the file's history, not swapped for it.
func TestWriteResultsAppendsHistories(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	for _, when := range []string{"first", "second"} {
		if err := writeResults(path, map[string]any{"soak": []experiments.SoakRun{{When: when}}}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Soak []experiments.SoakRun `json:"soak"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Soak) != 2 || got.Soak[0].When != "first" || got.Soak[1].When != "second" {
		t.Fatalf("soak history = %+v, want the first run's entry then the second's", got.Soak)
	}
}

// TestDefaultSuites: with no suite named, every suite but soak runs, in the
// order the evaluation has always printed them.
func TestDefaultSuites(t *testing.T) {
	sel, err := selectSuites(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sel {
		got = append(got, s.name)
	}
	want := "backup overload scaling routing processing_by_size processing_by_threads cpu_breakdown postmark replication table1 table3 ablations"
	if strings.Join(got, " ") != want {
		t.Fatalf("default suites = %v, want %s", got, want)
	}
}

// TestUnknownSuiteListsSuites: a name that is not a suite fails the run
// before anything runs, and the error lists the suites.
func TestUnknownSuiteListsSuites(t *testing.T) {
	err := run([]string{"routing", "fig4"}, opts{}, "")
	if err == nil {
		t.Fatal("run accepted an unknown suite")
	}
	for _, s := range suites {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error %q does not list suite %q", err, s.name)
		}
	}
}

// TestViolationsFailTheRun: a suite that breaks a gate fails the run, and
// the error names the gate.
func TestViolationsFailTheRun(t *testing.T) {
	saved := suites
	defer func() { suites = saved }()
	suites = append(suites[:len(suites):len(suites)], suite{name: "gated", named: true,
		run: func(opts) (string, any, []string, error) { return "", nil, []string{"gate broke"}, nil }})
	err := run([]string{"gated"}, opts{}, "")
	if err == nil || !strings.Contains(err.Error(), "gate broke") {
		t.Fatalf("run of a suite with a violation: err = %v, want the violation", err)
	}
}

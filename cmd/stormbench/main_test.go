package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestFig4RunKeepsOtherSections: a -fig 4 run over the checked-in results
// file rewrites only the sections it produces and leaves every other section
// byte-identical — the dated histories of suites this command no longer runs
// included.
func TestFig4RunKeepsOtherSections(t *testing.T) {
	orig, err := os.ReadFile("../../BENCH_results.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runCfg{fig: 4, ops: 20, jsonPath: path}); err != nil {
		t.Fatalf("-fig 4 run: %v", err)
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
			t.Errorf("section %q changed by a -fig 4 run", name)
		}
	}
	if _, ok := after["routing"]; !ok {
		t.Error("-fig 4 run wrote no routing section")
	}
}

// TestWriteResultsAppendsHistories: each run's dated suite entry is appended
// to the file's history, not swapped for it.
func TestWriteResultsAppendsHistories(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	for _, when := range []string{"first", "second"} {
		if err := writeResults(path, &benchResults{Soak: []experiments.SoakRun{{When: when}}}); err != nil {
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

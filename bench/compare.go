package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is BENCHMARK.json as far as this program reads it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads a results.jsonl and returns the end-to-end values of every
// run in it, keyed by workload then metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v as
// Python's statistics.quantiles(v, n=4) gives them (the driver's rule).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// relSpread is the inter-quartile distance as a share of the median.
func relSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// verdict judges new against old for one metric on one workload. change is
// signed so that positive is worse. A spread wider than the bound cannot
// resolve a bound-sized change either way, so only a change larger than the
// spread itself still counts.
func verdict(change, spread, bound float64) string {
	switch {
	case spread > bound && change > spread:
		return "worse"
	case spread > bound && change < -spread:
		return "better"
	case spread > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	case change < -spread && change < 0:
		return "better"
	}
	return "no worse"
}

// compareMain implements "bench compare old.jsonl new.jsonl": one row per
// workload and end-to-end metric, judged by the bounds in BENCHMARK.json.
// It returns 1 when any row is worse or unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.jsonl new.jsonl   (run from the repository root)")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	olds, err := loadRuns(args[0])
	if err == nil {
		var news map[string]map[string][]float64
		if news, err = loadRuns(args[1]); err == nil {
			return compare(sp, olds, news)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compare(sp *spec, olds, news map[string]map[string][]float64) int {
	status := 0
	fmt.Printf("%-13s %-15s %14s %8s %3s %14s %8s %3s %9s %7s  %s\n",
		"workload", "metric", "old median", "spread", "n", "new median", "spread", "n", "new/old", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			o, n := olds[w.Name][m.Name], news[w.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Printf("%-13s %-15s missing from one side\n", w.Name, m.Name)
				status = 1
				continue
			}
			_, om, _ := quartiles(o)
			_, nm, _ := quartiles(n)
			oldSpread, newSpread := relSpread(o), relSpread(n)
			change := ratio(nm-om, om)
			if m.Better == "higher" {
				change = -change
			}
			spread := max(oldSpread, newSpread)
			if m.Name == "setup_s" {
				// A few milliseconds of set-up scatter widely run to run;
				// only its median is held to the bound.
				spread = m.Bound
			}
			v := verdict(change, spread, m.Bound)
			if v == "worse" || v == "unresolved" {
				status = 1
			}
			fmt.Printf("%-13s %-15s %14.4f %7.1f%% %3d %14.4f %7.1f%% %3d %9.4f %6.0f%%  %s\n",
				w.Name, m.Name, om, 100*oldSpread, len(o), nm, 100*newSpread, len(n), ratio(nm, om), 100*m.Bound, v)
		}
	}
	return status
}

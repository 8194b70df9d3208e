// Command stormbench regenerates the tables and figures of the paper's
// evaluation (Section V) against the simulated testbed, printing the same
// rows and series the paper reports, plus the scale-out, soak, backup and
// overload suites. Absolute numbers reflect the scaled cost model; the
// shapes (who wins, by roughly what factor, where the crossovers fall) are
// the reproduction targets — see EXPERIMENTS.md.
//
// Usage:
//
//	stormbench [flags] [suite ...]
//
// With no suite named it runs every suite but soak; `stormbench -h` lists
// them. -short runs soak, backup and overload at smoke size and records
// nothing. The command exits non-zero when a suite fails or breaks one of
// its gates.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// opts are the run-wide settings the suites read.
type opts struct {
	ops    int           // fio operations per data point
	repDur time.Duration // replication run length
	short  bool          // smoke sizes
}

// suite is one named result of the evaluation. run returns the printed
// report, the record stored under the suite's name in the results file
// (nil: the suite records nothing) and the gates it broke.
type suite struct {
	name    string
	title   string
	paper   string // the paper's numbers, printed under the title
	history bool   // the results section is a dated list each run appends to
	named   bool   // runs only when named
	run     func(o opts) (text string, record any, violations []string, err error)
}

// suites is the evaluation in run order.
var suites = []suite{
	{name: "backup", title: "Backup: content-addressed replication, dedup, scrub repair", history: true,
		run: func(o opts) (string, any, []string, error) {
			run, err := experiments.RunBackup(smoke(o, experiments.BackupConfig{Chunks: 128, Rounds: 3}))
			if err != nil {
				return "", nil, nil, err
			}
			return experiments.FormatBackup(run), run, run.Violations, nil
		}},
	{name: "overload", title: "Overload: exhaustion, backpressure, circuit breakers", history: true,
		run: func(o opts) (string, any, []string, error) {
			run, err := experiments.RunOverload(smoke(o, experiments.OverloadConfig{BrownoutWrites: 200}))
			if err != nil {
				return "", nil, nil, err
			}
			return experiments.FormatOverload(run), run, run.Violations, nil
		}},
	{name: "scaling", title: "Scale-out: aggregate write throughput vs group size", history: true,
		run: func(opts) (string, any, []string, error) {
			rows, err := experiments.Scaling(nil, 0, 0)
			run := experiments.ScalingRun{When: time.Now().UTC().Format(time.RFC3339), Rows: rows}
			return report(func(r experiments.ScalingRun) string { return experiments.FormatScaling(r.Rows) })(run, err)
		}},
	{name: "routing", title: "Figures 4 & 7: traffic redirection overhead (LEGACY vs MB-FWD)",
		paper: "norm IOPS 0.93/0.86/0.83/0.82; norm latency 1.08/1.22/1.25/1.30",
		run: func(o opts) (string, any, []string, error) {
			return report(experiments.FormatRoutingTable)(experiments.RoutingOverhead(experiments.Options{FioOps: o.ops}))
		}},
	{name: "processing_by_size", title: "Figures 5 & 8: middle-box processing overhead by I/O size",
		paper: "active norm IOPS 1.01/1.00/1.06/1.14; active norm latency 0.98/1.01/0.94/0.89",
		run: func(o opts) (string, any, []string, error) {
			return report(processingTable(false))(experiments.ProcessingOverheadBySize(experiments.Options{FioOps: o.ops}))
		}},
	{name: "processing_by_threads", title: "Figures 6 & 9: middle-box processing overhead by thread count (16K)",
		paper: "active norm IOPS 1.06/1.10/1.27/1.39; active norm latency 0.95/0.91/0.79/0.70",
		run: func(o opts) (string, any, []string, error) {
			return report(processingTable(true))(experiments.ProcessingOverheadByThreads(experiments.Options{FioOps: o.ops / 2}))
		}},
	{name: "cpu_breakdown", title: "Figure 10: CPU utilization breakdown (FTP, AES-256)",
		paper: "tenant-side 85%+24.4%; middle-box 25.1%+37.1%+25% (~20% total savings)",
		run: func(opts) (string, any, []string, error) {
			return report(experiments.FormatCPUTable)(experiments.CPUBreakdown())
		}},
	{name: "postmark", title: "Figure 11: PostMark with tenant-side vs middle-box encryption",
		paper: "middle-box improves every component by 23-34%",
		run: func(opts) (string, any, []string, error) {
			return textOnly(experiments.FormatPostmarkTable)(experiments.RunPostmarkComparison())
		}},
	{name: "replication", title: "Figure 13: MySQL stand-in TPS with replica failure",
		paper: "3 replicas ~1.8x one store; slight drop after a replica fails; service continues",
		run: func(o opts) (string, any, []string, error) {
			return report(experiments.FormatReplicationRun)(experiments.RunReplication(o.repDur))
		}},
	{name: "table1", title: "Tables I & II: semantics reconstruction",
		run: func(opts) (string, any, []string, error) {
			return textOnly(func(r *experiments.ReconstructionResult) string { return experiments.FormatReconstruction(r, 60) })(experiments.TableI())
		}},
	{name: "table3", title: "Table III: backdoor malware installation footprint",
		run: func(opts) (string, any, []string, error) {
			steps, log, err := experiments.TableIII()
			return textOnly(func(steps []experiments.MalwareStep) string { return experiments.FormatMalware(steps, log) })(steps, err)
		}},
	{name: "ablations", title: "Ablations (design choices)", run: ablations},
	{name: "soak", title: "Soak: sustained multi-tenant churn under load", history: true, named: true,
		run: func(o opts) (string, any, []string, error) {
			run, err := experiments.RunSoak(smoke(o, experiments.SoakConfig{Tenants: 96, Duration: 1500 * time.Millisecond}))
			if err != nil {
				return "", nil, nil, err
			}
			return experiments.FormatSoak(run), run, run.Violations, nil
		}},
}

// ablations runs the design-choice sweeps. A sweep that fails is reported
// in the text and left out of the record; the others still run.
func ablations(o opts) (string, any, []string, error) {
	var b strings.Builder
	rec := make(map[string][]experiments.AblationRow)
	sweep := func(key, title string, rows []experiments.AblationRow, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s failed: %v\n", strings.ReplaceAll(key, "_", " "), err)
			return
		}
		b.WriteString(experiments.FormatAblation(title, rows))
		rec[key] = rows
	}
	rows, err := experiments.AblationGatewayPlacement(o.ops)
	sweep("gateway_placement", "gateway placement (16K, 1 thread)", rows, err)
	rows, err = experiments.AblationChainLength(o.ops)
	sweep("chain_length", "chain length (forward MBs on path)", rows, err)
	rows, err = experiments.AblationJournalCapacity(o.ops / 2)
	sweep("journal_capacity", "active-relay journal capacity (write-heavy)", rows, err)
	rows, err = experiments.AblationReplicaFactor(o.repDur / 3)
	sweep("replica_factor", "replication factor (OLTP TPS)", rows, err)
	if len(rec) == 0 {
		return b.String(), nil, nil, nil
	}
	return b.String(), rec, nil, nil
}

// report adapts an ungated suite function's (result, error) to a suite's
// return: format renders the result, which is also the record.
func report[T any](format func(T) string) func(T, error) (string, any, []string, error) {
	return func(v T, err error) (string, any, []string, error) {
		if err != nil {
			return "", nil, nil, err
		}
		return format(v), v, nil, nil
	}
}

// textOnly is report for a suite that records nothing.
func textOnly[T any](format func(T) string) func(T, error) (string, any, []string, error) {
	return func(v T, err error) (string, any, []string, error) {
		text, _, _, err := report(format)(v, err)
		return text, nil, nil, err
	}
}

// processingTable renders Figures 5 & 8 (by size) or 6 & 9 (by threads).
func processingTable(byThreads bool) func([]experiments.ProcessingRow) string {
	return func(rows []experiments.ProcessingRow) string {
		return experiments.FormatProcessingTable(rows, byThreads)
	}
}

// smoke returns the suite's smoke size under -short and its zero value (the
// suite's full-size defaults) otherwise.
func smoke[C any](o opts, size C) C {
	if o.short {
		return size
	}
	var full C
	return full
}

func main() {
	var (
		short      = flag.Bool("short", false, "run soak, backup and overload at smoke sizes and record nothing")
		ops        = flag.Int("ops", 150, "fio operations per data point")
		repDur     = flag.Duration("repdur", 3*time.Second, "replication run duration")
		jsonPath   = flag.String("json", "BENCH_results.json", "write machine-readable results here (empty disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile here")
		memProfile = flag.String("memprofile", "", "write a heap profile here on exit")
	)
	flag.Usage = usage
	flag.Parse()
	if *short {
		*jsonPath = ""
	}
	err := profiled(*cpuProfile, *memProfile, func() error {
		return run(flag.Args(), opts{ops: *ops, repDur: *repDur, short: *short}, *jsonPath)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stormbench:", err)
		os.Exit(1)
	}
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: stormbench [flags] [suite ...]\n\nsuites, in run order (with none named, all but those marked \"named only\"):")
	for _, s := range suites {
		only := ""
		if s.named {
			only = " (named only)"
		}
		fmt.Fprintf(w, "  %-22s %s%s\n", s.name, s.title, only)
	}
	fmt.Fprintln(w, "\nflags:")
	flag.PrintDefaults()
}

// run runs the named suites in table order (with none named, every suite
// not marked named), prints each, merges their records into the results
// file at jsonPath (none when empty) and fails when a suite failed or broke
// a gate.
func run(names []string, o opts, jsonPath string) error {
	sel, err := selectSuites(names)
	if err != nil {
		return err
	}
	results := map[string]any{"fio_ops": o.ops}
	var failed []string
	for _, s := range sel {
		fmt.Printf("\n================ %s ================\n", s.title)
		if s.paper != "" {
			fmt.Println("paper:", s.paper)
		}
		text, rec, violations, err := s.run(o)
		fmt.Print(text)
		switch {
		case err != nil:
			failed = append(failed, fmt.Sprintf("%s: %v", s.name, err))
		case len(violations) > 0:
			failed = append(failed, fmt.Sprintf("%s failed: %s", s.name, violations[0]))
		}
		if rec == nil {
			continue
		}
		if s.history {
			rec = []any{rec}
		}
		results[s.name] = rec
	}
	if jsonPath != "" {
		results["observability"] = obs.Default().Snapshot()
		if err := writeResults(jsonPath, results); err != nil {
			failed = append(failed, fmt.Sprintf("write results: %v", err))
		} else {
			fmt.Printf("\nresults written to %s\n", jsonPath)
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// selectSuites returns the named suites in table order, or every suite not
// marked named when names is empty.
func selectSuites(names []string) ([]suite, error) {
	var sel []suite
	var all []string
	for _, s := range suites {
		all = append(all, s.name)
		if slices.Contains(names, s.name) || len(names) == 0 && !s.named {
			sel = append(sel, s)
		}
	}
	for _, n := range names {
		if !slices.Contains(all, n) {
			return nil, fmt.Errorf("unknown suite %q; suites: %s", n, strings.Join(all, ", "))
		}
	}
	return sel, nil
}

// history reports whether the results section name is a dated list a run
// appends to.
func history(name string) bool {
	for _, s := range suites {
		if s.name == name {
			return s.history
		}
	}
	return false
}

// profiled runs f, under a CPU profile written to cpuPath and followed by
// a heap profile written to memPath, for the paths that are set.
func profiled(cpuPath, memPath string, f func() error) error {
	if cpuPath != "" {
		out, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := pprof.StartCPUProfile(out); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	err := f()
	if memPath != "" {
		out, merr := os.Create(memPath)
		if merr == nil {
			runtime.GC()
			merr = pprof.WriteHeapProfile(out)
			out.Close()
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", merr)
		}
	}
	return err
}

// writeResults merges sections into the results file at path. A dated
// history section (see history) gets the new entries appended; every other
// section replaces the file's, and sections not given (e.g. everything but
// routing after a routing run) are kept byte for byte, whatever their
// shape — including those of suites this command no longer runs.
func writeResults(path string, sections map[string]any) error {
	merged := make(map[string]json.RawMessage)
	if old, err := os.ReadFile(path); err == nil && json.Unmarshal(old, &merged) != nil {
		merged = make(map[string]json.RawMessage) // unreadable: start over
	}
	for k, v := range sections {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if prev, ok := merged[k]; ok && history(k) {
			var entries, added []json.RawMessage
			if json.Unmarshal(prev, &entries) == nil && json.Unmarshal(data, &added) == nil {
				if data, err = json.Marshal(append(entries, added...)); err != nil {
					return err
				}
			}
		}
		merged[k] = data
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

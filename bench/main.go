// Command bench is the repository's benchmark: six tenant-visible
// workloads, each measured end to end at the VM-side block device and, in a
// separate traced pass, layer by layer. BENCHMARK.json at the repository
// root declares what it emits; README.md in this directory says why.
//
//	go run ./bench --workload mem_4k --seed 1 --seconds 15 --trace 0
//	go run ./bench                      # every workload, both passes
//	go run ./bench compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 15
	// procs pins GOMAXPROCS to one. With two Ps on two shared vCPUs the Go
	// scheduler's cross-P wake-ups (and whatever else the host runs on the
	// second vCPU) made ten back-to-back runs of wal_4k differ by 10 to 23 %
	// in every time-based metric; with one P they differed by 2 %, and the
	// program is faster and spends half the CPU per op. What one P cannot
	// show is lock contention and speed-up from parallelism; what it shows
	// well is the CPU work along the path, which is what changes to the
	// codec, the journals, the copies and the spans move.
	procs = 1
)

// timing is how long a pass spends on what. Everything but measure is a
// constant of the benchmark; the smoke test shrinks all of it.
type timing struct {
	// measure is the measured time of the pass (--seconds).
	measure time.Duration
	// window is the length of one timed window of the end-to-end pass; a
	// reported value is the median over the fastest eighth of them (see
	// fastest).
	window time.Duration
	// warmup is discarded load before the first window.
	warmup time.Duration
	// setup_s is the median of at least minSetups set-ups, and of as many
	// more (up to maxSetups) as fit in setupBudget.
	minSetups, maxSetups int
	setupBudget          time.Duration
}

func fullTiming(measure time.Duration) timing {
	return timing{
		measure: measure, window: 250 * time.Millisecond, warmup: time.Second,
		minSetups: 5, maxSetups: 200, setupBudget: 1500 * time.Millisecond,
	}
}

// metric is one reported value. min, max and n describe the windows (or
// batches) whose median it is.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	min   float64
	max   float64
	n     int
	note  string
}

// medianOf is the metric for the median of v.
func medianOf(v []float64, unit string) metric {
	s := spreadOf(v)
	return metric{Value: s.median, Unit: unit, min: s.min, max: s.max, n: len(v)}
}

// result is the contract's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of results.jsonl: a result with the facts needed to
// compare it with another.
type record struct {
	Workload   string `json:"workload"`
	Trace      int    `json:"trace"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	StateFS    string `json:"state_fs"`
	When       string `json:"when"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		names   = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed    = flag.Int64("seed", 1, "seeds every generator")
		seconds = flag.Int("seconds", defaultSeconds, "measured seconds per pass")
		trace   = flag.String("trace", "both", "0: end-to-end pass, 1: traced per-layer pass, both")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for results.jsonl, traces and journal state")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var passes []int
	switch *trace {
	case "0":
		passes = []int{0}
	case "1":
		passes = []int{1}
	case "both":
		passes = []int{0, 1}
	default:
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *names != "all" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
				os.Exit(2)
			}
			selected = append(selected, w)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	stateRoot := filepath.Join(*outDir, "state")
	stateFS, err := enterStateDir(stateRoot)
	if err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(procs)

	ok := true
	tm := fullTiming(time.Duration(*seconds) * time.Second)
	for _, w := range selected {
		for _, pass := range passes {
			e := env{seed: *seed, stateRoot: stateRoot}
			var res result
			var err error
			if pass == 0 {
				res, err = endToEndPass(w, e, tm)
			} else {
				res, err = layerPass(w, e, tm, *outDir)
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			ok = ok && res.Correct
			printMetrics(w.name, res)
			rec := record{
				Workload: w.name, Trace: pass, Seed: *seed, Seconds: *seconds,
				Commit: buildSetting("vcs.revision"), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
				GOMAXPROCS: procs, StateFS: stateFS, When: time.Now().UTC().Format(time.RFC3339),
				result: res,
			}
			if err := appendRecord(filepath.Join(*outDir, "results.jsonl"), rec); err != nil {
				fatal(err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(line))
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// endToEndPass times set-up, warms up, and measures the untraced windows
// every end-to-end metric comes from.
func endToEndPass(w workload, e env, tm timing) (result, error) {
	obs.Default().DisableTracing()
	// Set-up is timed several times over, more often the cheaper it is:
	// a few milliseconds of cloud assembly are mostly scheduler noise.
	var setupS []float64
	var rg *rig
	var spent time.Duration
	for len(setupS) < tm.minSetups || (spent < tm.setupBudget && len(setupS) < tm.maxSetups) {
		if rg != nil {
			rg.close()
		}
		obs.Default().Reset()
		runtime.GC()
		var err error
		if rg, err = w.setup(e); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		spent += rg.setupTook
		setupS = append(setupS, rg.setupTook.Seconds())
	}
	defer rg.close()

	window(rg, tm.warmup)
	all := windows(rg, tm.window, int(tm.measure/tm.window))
	res := result{Metrics: map[string]metric{}}
	var ops, mallocs float64
	for _, s := range all {
		res.count(s)
		ops += float64(s.ops)
		mallocs += float64(s.mallocs)
	}
	res.finish(w, rg)

	best := fastest(all)
	put := func(name, unit string, f func(sample) float64) {
		v := make([]float64, len(best))
		for i, s := range best {
			v[i] = f(s)
		}
		res.Metrics[name] = medianOf(v, unit)
	}
	put("write_p50_us", "us", func(s sample) float64 { return s.writeP50 })
	put("read_p50_us", "us", func(s sample) float64 { return s.readP50 })
	put("iops", "1/s", func(s sample) float64 { return s.iops })
	put("cpu_us_per_op", "us", func(s sample) float64 { return s.cpuPerOp })
	// Allocation counts do not depend on the host, so every window counts.
	res.put("allocs_per_op", "count", ratio(mallocs, ops))
	res.Metrics["setup_s"] = medianOf(setupS, "s")
	return res, nil
}

func (res *result) put(name, unit string, v float64) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) count(s sample) {
	res.Attempted += s.ops
	res.Failed += s.failed
}

// finish runs the workload's end-of-run checks, reports what failed, and
// settles correct.
func (res *result) finish(w workload, rg *rig) checkResult {
	for _, rec := range rg.recs {
		if rec.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: first failed op: %v\n", w.name, rec.firstErr)
			break
		}
	}
	chk := rg.check()
	res.Attempted += int64(chk.attempted)
	res.Failed += int64(chk.failed)
	for _, n := range chk.notes {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, n)
	}
	res.Correct = res.Failed == 0
	return chk
}

// layerPass is the --trace 1 pass: the traced run of the workload, then the
// direct layer harness, then the spans of both written out.
func layerPass(w workload, e env, tm timing, outDir string) (result, error) {
	res, traces, err := tracedPass(w, e, tm)
	if err != nil {
		return result{}, err
	}
	h := &harness{stateRoot: e.stateRoot, realDir: outDir}
	h.runAll()
	for name, m := range h.metrics {
		res.Metrics[name] = m
	}
	res.Attempted += int64(len(h.metrics))
	res.Failed += int64(len(h.errs))
	res.Correct = res.Failed == 0
	for _, err := range h.errs {
		fmt.Fprintf(os.Stderr, "bench: layer harness: %v\n", err)
	}
	tf := traceFile{Workload: w.name, Seed: e.seed, Traces: traces, Harness: h.spans}
	return res, writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), tf)
}

func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-13s %-40s %14.4f %-6s", workload, n, m.Value, m.Unit)
		if m.n > 0 {
			fmt.Printf(" [%.4f .. %.4f] n=%d", m.min, m.max, m.n)
		}
		if m.note != "" {
			fmt.Printf(" %s", m.note)
		}
		fmt.Println()
	}
	fmt.Printf("%-13s attempted=%d failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildSetting reads one key of the binary's embedded build settings.
func buildSetting(key string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == key {
				return s.Value
			}
		}
	}
	return "unknown"
}

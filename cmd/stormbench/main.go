// Command stormbench regenerates every table and figure of the paper's
// evaluation (Section V) against the simulated testbed, printing the same
// rows and series the paper reports. Absolute numbers reflect the scaled
// cost model; the shapes (who wins, by roughly what factor, where the
// crossovers fall) are the reproduction targets — see EXPERIMENTS.md.
//
// Usage:
//
//	stormbench                 # run everything
//	stormbench -fig 4          # one figure (4,5,6,7,8,9,10,11,13)
//	stormbench -table 1        # one table (1 or 3)
//	stormbench -ablations      # the design-choice sweeps
//	stormbench -scale          # throughput-vs-instances scale-out sweep
//	stormbench -soak           # sustained multi-tenant soak with churn (non-zero exit on a failed gate)
//	stormbench -backup         # content-addressed backup suite: dedup ratio, fan-out, scrub repair
//	stormbench -overload       # overload suite: WAL/CAS exhaustion, breaker trip/recover (non-zero exit on a failed gate)
//	stormbench -soak -short    # smoke sizes for -soak, -backup and -overload; records nothing
//	stormbench -ops 200        # fio ops per point (accuracy vs. runtime)
//	stormbench -json out.json  # machine-readable results (default BENCH_results.json)
//	stormbench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// benchResults is the machine-readable mirror of the printed report: each
// section holds the same rows the text tables render (per-workload
// throughput plus full latency distributions), and Observability is the
// obs registry snapshot accumulated across every run (per-stage latency
// percentiles, counters, gauges).
type benchResults struct {
	FioOps              int                                  `json:"fio_ops"`
	Routing             []experiments.RoutingRow             `json:"routing,omitempty"`
	ProcessingBySize    []experiments.ProcessingRow          `json:"processing_by_size,omitempty"`
	ProcessingByThreads []experiments.ProcessingRow          `json:"processing_by_threads,omitempty"`
	CPUBreakdown        []experiments.CPURow                 `json:"cpu_breakdown,omitempty"`
	Ablations           map[string][]experiments.AblationRow `json:"ablations,omitempty"`
	Replication         *experiments.ReplicationRun          `json:"replication,omitempty"`
	Scaling             []experiments.ScalingRun             `json:"scaling,omitempty"`
	Soak                []experiments.SoakRun                `json:"soak,omitempty"`
	Backup              []experiments.BackupRun              `json:"backup,omitempty"`
	Overload            []experiments.OverloadRun            `json:"overload,omitempty"`
	Observability       obs.Snapshot                         `json:"observability"`
}

// histories names the dated sections of the results file: a run appends to
// them instead of replacing them.
var histories = map[string]bool{"scaling": true, "soak": true, "backup": true, "overload": true}

func main() {
	var (
		fig        = flag.Int("fig", 0, "run a single figure (4-11, 13); 0 = all")
		table      = flag.Int("table", 0, "run a single table (1 or 3); 0 = all")
		ablations  = flag.Bool("ablations", false, "run only the ablation sweeps")
		scale      = flag.Bool("scale", false, "run only the scale-out throughput-vs-instances sweep")
		soak       = flag.Bool("soak", false, "run only the sustained multi-tenant soak (exit non-zero on a failed gate)")
		backup     = flag.Bool("backup", false, "run only the content-addressed backup suite (exit non-zero on a failed gate)")
		overload   = flag.Bool("overload", false, "run only the overload/exhaustion suite (exit non-zero on a failed gate)")
		short      = flag.Bool("short", false, "run the soak, backup and overload suites at smoke sizes and record nothing")
		ops        = flag.Int("ops", 150, "fio operations per data point")
		repDur     = flag.Duration("repdur", 3*time.Second, "replication run duration")
		jsonPath   = flag.String("json", "BENCH_results.json", "write machine-readable results here (empty disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile here")
		memProfile = flag.String("memprofile", "", "write a heap profile here on exit")
	)
	flag.Parse()
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stormbench:", err)
		os.Exit(1)
	}
	cfg := runCfg{
		fig: *fig, table: *table, ablationsOnly: *ablations, scaleOnly: *scale,
		soakOnly: *soak, backupOnly: *backup, overloadOnly: *overload,
		ops: *ops, repDur: *repDur, jsonPath: *jsonPath,
	}
	if *short {
		cfg.soak = experiments.SoakConfig{Tenants: 96, Duration: 1500 * time.Millisecond}
		cfg.backup = experiments.BackupConfig{Chunks: 128, Rounds: 3}
		cfg.overload = experiments.OverloadConfig{BrownoutWrites: 200}
		cfg.jsonPath = ""
	}
	err = run(cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stormbench:", err)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and arranges the heap snapshot; the
// returned stop function flushes both (call it before exiting).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// runCfg bundles the CLI selection for run. The suite configs are zero
// (each suite's full-size defaults) unless -short picked the smoke sizes.
type runCfg struct {
	fig, table                                                   int
	ablationsOnly, scaleOnly, soakOnly, backupOnly, overloadOnly bool
	soak                                                         experiments.SoakConfig
	backup                                                       experiments.BackupConfig
	overload                                                     experiments.OverloadConfig
	ops                                                          int
	repDur                                                       time.Duration
	jsonPath                                                     string
}

func run(cfg runCfg) error {
	fig, table := cfg.fig, cfg.table
	ops, repDur, jsonPath := cfg.ops, cfg.repDur, cfg.jsonPath
	opts := experiments.Options{FioOps: ops}
	all := fig == 0 && table == 0 && !cfg.ablationsOnly && !cfg.scaleOnly && !cfg.soakOnly && !cfg.backupOnly && !cfg.overloadOnly
	results := &benchResults{FioOps: ops, Ablations: make(map[string][]experiments.AblationRow)}
	if jsonPath != "" {
		defer func() {
			results.Observability = obs.Default().Snapshot()
			if err := writeResults(jsonPath, results); err != nil {
				fmt.Fprintln(os.Stderr, "stormbench: write results:", err)
			} else {
				fmt.Printf("\nresults written to %s\n", jsonPath)
			}
		}()
	}

	section := func(title string) {
		fmt.Printf("\n================ %s ================\n", title)
	}

	if cfg.soakOnly {
		section("Soak: sustained multi-tenant churn under load")
		soakRun, err := experiments.RunSoak(cfg.soak)
		if err != nil {
			return err
		}
		soakRun.When = time.Now().UTC().Format(time.RFC3339)
		fmt.Print(experiments.FormatSoak(soakRun))
		results.Soak = []experiments.SoakRun{*soakRun}
		if len(soakRun.Violations) > 0 {
			return fmt.Errorf("soak failed: %s", soakRun.Violations[0])
		}
		return nil
	}

	if cfg.backupOnly || all {
		section("Backup: content-addressed replication, dedup, scrub repair")
		backupRun, err := experiments.RunBackup(cfg.backup)
		if err != nil {
			return err
		}
		backupRun.When = time.Now().UTC().Format(time.RFC3339)
		fmt.Print(experiments.FormatBackup(backupRun))
		results.Backup = []experiments.BackupRun{*backupRun}
		if len(backupRun.Violations) > 0 {
			return fmt.Errorf("backup failed: %s", backupRun.Violations[0])
		}
		if cfg.backupOnly {
			return nil
		}
	}

	if cfg.overloadOnly || all {
		section("Overload: exhaustion, backpressure, circuit breakers")
		overloadRun, err := experiments.RunOverload(cfg.overload)
		if err != nil {
			return err
		}
		overloadRun.When = time.Now().UTC().Format(time.RFC3339)
		fmt.Print(experiments.FormatOverload(overloadRun))
		results.Overload = []experiments.OverloadRun{*overloadRun}
		if len(overloadRun.Violations) > 0 {
			return fmt.Errorf("overload failed: %s", overloadRun.Violations[0])
		}
		if cfg.overloadOnly {
			return nil
		}
	}

	if cfg.scaleOnly || all {
		section("Scale-out: aggregate write throughput vs group size")
		rows, err := experiments.Scaling(nil, 0, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScaling(rows))
		results.Scaling = []experiments.ScalingRun{{
			When: time.Now().UTC().Format(time.RFC3339),
			Rows: rows,
		}}
		if cfg.scaleOnly {
			return nil
		}
	}

	if cfg.ablationsOnly || all {
		defer func() {
			section("Ablations (design choices)")
			if rows, err := experiments.AblationGatewayPlacement(ops); err == nil {
				fmt.Print(experiments.FormatAblation("gateway placement (16K, 1 thread)", rows))
				results.Ablations["gateway_placement"] = rows
			} else {
				fmt.Println("gateway placement failed:", err)
			}
			if rows, err := experiments.AblationChainLength(ops); err == nil {
				fmt.Print(experiments.FormatAblation("chain length (forward MBs on path)", rows))
				results.Ablations["chain_length"] = rows
			} else {
				fmt.Println("chain length failed:", err)
			}
			if rows, err := experiments.AblationJournalCapacity(ops / 2); err == nil {
				fmt.Print(experiments.FormatAblation("active-relay journal capacity (write-heavy)", rows))
				results.Ablations["journal_capacity"] = rows
			} else {
				fmt.Println("journal capacity failed:", err)
			}
			if rows, err := experiments.AblationReplicaFactor(repDur / 3); err == nil {
				fmt.Print(experiments.FormatAblation("replication factor (OLTP TPS)", rows))
				results.Ablations["replica_factor"] = rows
			} else {
				fmt.Println("replica factor failed:", err)
			}
		}()
		if cfg.ablationsOnly {
			return nil
		}
	}

	if all || fig == 4 || fig == 7 {
		section("Figures 4 & 7: traffic redirection overhead (LEGACY vs MB-FWD)")
		fmt.Println("paper: norm IOPS 0.93/0.86/0.83/0.82; norm latency 1.08/1.22/1.25/1.30")
		rows, err := experiments.RoutingOverhead(opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRoutingTable(rows))
		results.Routing = rows
	}

	if all || fig == 5 || fig == 8 {
		section("Figures 5 & 8: middle-box processing overhead by I/O size")
		fmt.Println("paper: active norm IOPS 1.01/1.00/1.06/1.14; active norm latency 0.98/1.01/0.94/0.89")
		rows, err := experiments.ProcessingOverheadBySize(opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatProcessingTable(rows, false))
		results.ProcessingBySize = rows
	}

	if all || fig == 6 || fig == 9 {
		section("Figures 6 & 9: middle-box processing overhead by thread count (16K)")
		fmt.Println("paper: active norm IOPS 1.06/1.10/1.27/1.39; active norm latency 0.95/0.91/0.79/0.70")
		rows, err := experiments.ProcessingOverheadByThreads(experiments.Options{FioOps: ops / 2})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatProcessingTable(rows, true))
		results.ProcessingByThreads = rows
	}

	if all || fig == 10 {
		section("Figure 10: CPU utilization breakdown (FTP, AES-256)")
		fmt.Println("paper: tenant-side 85%+24.4%; middle-box 25.1%+37.1%+25% (~20% total savings)")
		rows, err := experiments.CPUBreakdown()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCPUTable(rows))
		results.CPUBreakdown = rows
	}

	if all || fig == 11 {
		section("Figure 11: PostMark with tenant-side vs middle-box encryption")
		fmt.Println("paper: middle-box improves every component by 23-34%")
		cmp, err := experiments.RunPostmarkComparison()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatPostmarkTable(cmp))
	}

	if all || fig == 12 || fig == 13 {
		section("Figure 13: MySQL stand-in TPS with replica failure")
		fmt.Println("paper: 3 replicas ~1.8x one store; slight drop after a replica fails; service continues")
		rep, err := experiments.RunReplication(repDur)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatReplicationRun(rep))
		results.Replication = rep
	}

	if all || table == 1 {
		section("Tables I & II: semantics reconstruction")
		res, err := experiments.TableI()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatReconstruction(res, 60))
	}

	if all || table == 3 {
		section("Table III: backdoor malware installation footprint")
		steps, log, err := experiments.TableIII()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatMalware(steps, log))
	}
	return nil
}

// writeResults merges this run's sections into the results file at path.
// The dated histories (see histories) get this run's entry appended; every
// other section this run wrote replaces the file's, and sections it did not
// write (e.g. everything but routing after -fig 4) are kept byte for byte,
// whatever their shape — including those of suites this command no longer
// runs.
func writeResults(path string, r *benchResults) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	var cur map[string]json.RawMessage
	if err := json.Unmarshal(data, &cur); err != nil {
		return err
	}
	merged := make(map[string]json.RawMessage)
	if old, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(old, &merged) != nil {
			merged = make(map[string]json.RawMessage) // unreadable: start over
		}
	}
	for k, v := range cur {
		if prev, ok := merged[k]; ok && histories[k] {
			var entries, added []json.RawMessage
			if json.Unmarshal(prev, &entries) == nil && json.Unmarshal(v, &added) == nil {
				if v, err = json.Marshal(append(entries, added...)); err != nil {
					return err
				}
			}
		}
		merged[k] = v
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Command stormd boots the simulated cloud, applies a tenant policy from a
// JSON file (or a built-in demo policy), attaches the bound volumes through
// their middle-box chains, exercises them with a small mixed workload, and
// prints the resulting platform state: deployments, attributions, chains,
// and service telemetry.
//
// Usage:
//
//	stormd                     # built-in demo policy
//	stormd -policy policy.json # apply a tenant policy file
//	stormd -hosts 6            # size the cloud
//	stormd -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	storm "repro"
	"repro/internal/obs"
)

const demoPolicy = `{
  "tenant": "demo",
  "middleboxes": [
    {"name": "mon", "type": "access-monitor", "params": {"watch": "/"}},
    {"name": "enc", "type": "encryption",
     "params": {"key": "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"}}
  ],
  "volumes": [
    {"vm": "vm1", "volume": "vol-0001", "chain": ["mon", "enc"]}
  ]
}`

func main() {
	var (
		policyPath  = flag.String("policy", "", "tenant policy JSON file (default: built-in demo)")
		hosts       = flag.Int("hosts", 4, "number of compute hosts")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /traces and /debug/pprof on this address (e.g. :9090)")
		trace       = flag.Bool("trace", false, "enable per-command distributed tracing (tail-sampled; exposed on /traces)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile here")
		memProfile  = flag.String("memprofile", "", "write a heap profile here on exit")
	)
	flag.Parse()
	if *trace {
		obs.Default().EnableTracing(obs.TraceConfig{})
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stormd:", err)
		os.Exit(1)
	}
	err = run(*policyPath, *hosts, *metricsAddr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stormd:", err)
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

func run(policyPath string, hosts int, metricsAddr string) error {
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()

		// Contention telemetry rides along with the metrics endpoint: the
		// runtime's mutex/block profilers feed /debug/pprof, and the sampler
		// publishes the aggregate runtime.* gauges next to the storm metrics.
		obs.ContentionProfiling(0, 0)
		sampler := obs.NewRuntimeSampler(obs.Default())
		sampler.Start(0)
		defer sampler.Stop()

		mux := http.NewServeMux()
		mux.Handle("/", obs.Default().Handler())
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Printf("metrics: http://%s/metrics (text), /metrics.json, /traces, /debug/pprof\n", ln.Addr())
	}

	data := []byte(demoPolicy)
	if policyPath != "" {
		var err error
		if data, err = os.ReadFile(policyPath); err != nil {
			return err
		}
	}
	pol, err := storm.ParsePolicy(data)
	if err != nil {
		return err
	}

	cloud, err := storm.NewCloud(storm.CloudConfig{ComputeHosts: hosts})
	if err != nil {
		return err
	}
	defer cloud.Close()
	platform := storm.NewPlatform(cloud)
	fmt.Printf("cloud up: compute hosts %v, storage host %s\n",
		cloud.ComputeHosts(), cloud.StorageHost())

	// Boot the VMs and volumes the policy references.
	for _, vb := range pol.Volumes {
		if _, err := cloud.VM(vb.VM); err != nil {
			if _, err := cloud.LaunchVM(vb.VM, ""); err != nil {
				return err
			}
			fmt.Printf("launched VM %s\n", vb.VM)
		}
		if _, err := cloud.Volumes.Get(vb.Volume); err != nil {
			vol, err := cloud.Volumes.Create(vb.VM+"-data", 64<<20)
			if err != nil {
				return err
			}
			if vol.ID != vb.Volume {
				return fmt.Errorf("policy references volume %q; created %q — adjust the policy", vb.Volume, vol.ID)
			}
			fmt.Printf("created volume %s (%d MiB)\n", vol.ID, vol.SizeBytes>>20)
		}
	}

	dep, err := platform.Apply(pol)
	if err != nil {
		return err
	}
	fmt.Printf("\napplied policy for tenant %q:\n", dep.Tenant)
	for name, mb := range dep.MBs {
		fmt.Printf("  middle-box %-8s -> VM %q on %s (%s, relay %s)\n",
			name, mb.Name, mb.Host, mb.Mode, mb.RelayAddr)
	}

	// Exercise each attached volume with a short mixed workload.
	for key, av := range dep.Volumes {
		res, err := storm.RunFio(storm.FioConfig{
			Dev:          av.Device,
			RequestSize:  16 * 1024,
			Threads:      4,
			ReadFraction: 0.5,
			Ops:          200,
			Seed:         1,
		})
		if err != nil {
			return fmt.Errorf("workload on %s: %w", key, err)
		}
		fmt.Printf("\nvolume %s through its chain: %s\n", key, res)
	}

	// Platform state.
	fmt.Println("\nconnection attributions:")
	for _, vb := range pol.Volumes {
		vol, err := cloud.Volumes.Get(vb.Volume)
		if err != nil {
			continue
		}
		if b, ok := cloud.Plane.Attributions().ByIQN(vol.IQN); ok {
			fmt.Printf("  %s\n", b)
		}
	}
	for name, mon := range dep.Monitors {
		fmt.Printf("\nmonitor %s: %d events logged, %d alerts\n",
			name, len(mon.Log()), len(mon.Alerts()))
	}
	for name, disp := range dep.Dispatchers {
		if disp == nil {
			continue
		}
		fmt.Printf("\nreplica dispatcher %s:\n", name)
		for _, s := range disp.States() {
			fmt.Printf("  %-10s alive=%v reads=%d writes=%d\n", s.Name, s.Alive, s.Reads, s.Writes)
		}
	}

	printObservability(obs.Default().Snapshot())
	return platform.Teardown(pol.Tenant)
}

// printObservability renders the end-to-end trace report: per-stage latency
// histograms (the paper's Figure 7/10 breakdown, measured live), then the
// registry's counters, gauges, and recent structured events.
func printObservability(snap obs.Snapshot) {
	fmt.Println("\nper-stage latency (end-to-end trace):")
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		if strings.HasPrefix(name, obs.StagePrefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s := snap.Histograms[name]
		if s.Count == 0 {
			continue
		}
		fmt.Printf("  %-32s n=%-6d p50=%-10v p95=%-10v p99=%-10v mean=%v\n",
			strings.TrimPrefix(name, obs.StagePrefix), s.Count, s.P50, s.P95, s.P99, s.Mean)
	}

	if len(snap.Counters) > 0 {
		fmt.Println("\ncounters:")
		cnames := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			cnames = append(cnames, name)
		}
		sort.Strings(cnames)
		for _, name := range cnames {
			fmt.Printf("  %-32s %d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Println("\ngauges:")
		gnames := make([]string, 0, len(snap.Gauges))
		for name := range snap.Gauges {
			gnames = append(gnames, name)
		}
		sort.Strings(gnames)
		for _, name := range gnames {
			g := snap.Gauges[name]
			fmt.Printf("  %-32s %d (high-water %d)\n", name, g.Value, g.High)
		}
	}
	if len(snap.Events) > 0 {
		const tail = 10
		evs := snap.Events
		if len(evs) > tail {
			evs = evs[len(evs)-tail:]
		}
		fmt.Printf("\nevents (last %d of %d):\n", len(evs), len(snap.Events))
		for _, e := range evs {
			fmt.Printf("  %s [%s] %s\n", e.Time.Format("15:04:05.000"), e.Kind, e.Msg)
		}
	}
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// SizeSweep is the I/O request sizes of Figures 4, 5, 7, 8.
var SizeSweep = []int{4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024}

// ThreadSweep is the parallelism sweep of Figures 6 and 9.
var ThreadSweep = []int{4, 8, 16, 32}

// RoutingRow is one point of Figures 4 and 7: LEGACY vs MB-FWD at one I/O
// size (one thread, 50/50 random read/write).
type RoutingRow struct {
	IOSize        int
	LegacyIOPS    float64
	MBFwdIOPS     float64
	LegacyLatency time.Duration
	MBFwdLatency  time.Duration
	// LegacyLat / MBFwdLat are the full latency distributions (percentiles
	// for machine-readable output); the *Latency fields above keep the means
	// for the text tables.
	LegacyLat obs.Summary
	MBFwdLat  obs.Summary
}

// NormIOPS returns MB-FWD IOPS normalized to LEGACY (Figure 4's bars).
func (r RoutingRow) NormIOPS() float64 { return r.MBFwdIOPS / r.LegacyIOPS }

// NormLatency returns MB-FWD latency normalized to LEGACY (Figure 7).
func (r RoutingRow) NormLatency() float64 {
	return float64(r.MBFwdLatency) / float64(r.LegacyLatency)
}

// Options tunes experiment durations (the shape tests use smaller op counts
// than cmd/stormbench).
type Options struct {
	// FioOps is the op count per fio run (default 120).
	FioOps int
}

// fioSeed seeds every figure's fio runs, for reproducibility (the DSN'16
// conference date).
const fioSeed = 20160628

func (o *Options) defaults() {
	if o.FioOps <= 0 {
		o.FioOps = 120
	}
}

// runFio provisions a scenario and runs one fio configuration against it.
func runFio(l *Lab, s Scenario, vmName string, size, threads, ops int) (*workload.FioResult, error) {
	dev, cleanup, err := l.provision(s, vmName)
	if err != nil {
		return nil, fmt.Errorf("experiments: provision %s: %w", s, err)
	}
	defer cleanup()
	return workload.RunFio(workload.FioConfig{
		Dev:          dev,
		RequestSize:  size,
		Threads:      threads,
		ReadFraction: 0.5,
		Ops:          ops,
		Seed:         fioSeed,
	})
}

// RoutingOverhead reproduces Figures 4 and 7: the redirection cost of the
// new forwarding plane with a non-processing middle-box, worst-case
// placement, one thread.
func RoutingOverhead(opts Options) ([]RoutingRow, error) {
	opts.defaults()
	var rows []RoutingRow
	for i, size := range SizeSweep {
		l, err := NewLab()
		if err != nil {
			return nil, err
		}
		leg, err := runFio(l, Legacy, fmt.Sprintf("vm-leg-%d", i), size, 1, opts.FioOps)
		if err != nil {
			l.Close()
			return nil, err
		}
		fwd, err := runFio(l, MBFwd, fmt.Sprintf("vm-fwd-%d", i), size, 1, opts.FioOps)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.Close()
		rows = append(rows, RoutingRow{
			IOSize:        size,
			LegacyIOPS:    leg.IOPS,
			MBFwdIOPS:     fwd.IOPS,
			LegacyLatency: leg.Latency.Mean,
			MBFwdLatency:  fwd.Latency.Mean,
			LegacyLat:     leg.Latency,
			MBFwdLat:      fwd.Latency,
		})
	}
	return rows, nil
}

// ProcessingRow is one point of Figures 5, 6, 8, 9: the three middle-box
// designs at one configuration (the relays run the stream cipher service).
type ProcessingRow struct {
	// IOSize and Threads identify the configuration.
	IOSize  int
	Threads int

	FwdIOPS     float64
	PassiveIOPS float64
	ActiveIOPS  float64

	FwdLatency     time.Duration
	PassiveLatency time.Duration
	ActiveLatency  time.Duration

	// Full latency distributions for machine-readable output.
	FwdLat     obs.Summary
	PassiveLat obs.Summary
	ActiveLat  obs.Summary
}

// Norm returns the scenario's IOPS normalized to MB-FWD.
func (r ProcessingRow) NormIOPS(s Scenario) float64 {
	switch s {
	case MBPassive:
		return r.PassiveIOPS / r.FwdIOPS
	case MBActive:
		return r.ActiveIOPS / r.FwdIOPS
	default:
		return 1
	}
}

// NormLatency returns the scenario's latency normalized to MB-FWD.
func (r ProcessingRow) NormLatency(s Scenario) float64 {
	switch s {
	case MBPassive:
		return float64(r.PassiveLatency) / float64(r.FwdLatency)
	case MBActive:
		return float64(r.ActiveLatency) / float64(r.FwdLatency)
	default:
		return 1
	}
}

// ProcessingOverheadBySize reproduces Figures 5 and 8: one thread, size
// sweep.
func ProcessingOverheadBySize(opts Options) ([]ProcessingRow, error) {
	opts.defaults()
	var rows []ProcessingRow
	for i, size := range SizeSweep {
		row, err := processingPoint(size, 1, i, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// ProcessingOverheadByThreads reproduces Figures 6 and 9: 16 KiB I/O,
// thread sweep.
func ProcessingOverheadByThreads(opts Options) ([]ProcessingRow, error) {
	opts.defaults()
	var rows []ProcessingRow
	for i, threads := range ThreadSweep {
		row, err := processingPoint(16*1024, threads, 100+i, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func processingPoint(size, threads, idx int, opts Options) (*ProcessingRow, error) {
	l, err := NewLab()
	if err != nil {
		return nil, err
	}
	defer l.Close()
	ops := opts.FioOps * threads
	fwd, err := runFio(l, MBFwd, fmt.Sprintf("vm-f%d", idx), size, threads, ops)
	if err != nil {
		return nil, err
	}
	pas, err := runFio(l, MBPassive, fmt.Sprintf("vm-p%d", idx), size, threads, ops)
	if err != nil {
		return nil, err
	}
	act, err := runFio(l, MBActive, fmt.Sprintf("vm-a%d", idx), size, threads, ops)
	if err != nil {
		return nil, err
	}
	return &ProcessingRow{
		IOSize:         size,
		Threads:        threads,
		FwdIOPS:        fwd.IOPS,
		PassiveIOPS:    pas.IOPS,
		ActiveIOPS:     act.IOPS,
		FwdLatency:     fwd.Latency.Mean,
		PassiveLatency: pas.Latency.Mean,
		ActiveLatency:  act.Latency.Mean,
		FwdLat:         fwd.Latency,
		PassiveLat:     pas.Latency,
		ActiveLat:      act.Latency,
	}, nil
}

// FormatRoutingTable renders Figures 4/7 as text.
func FormatRoutingTable(rows []RoutingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %10s | %12s %12s %10s\n",
		"size", "LEGACY iops", "MB-FWD iops", "norm", "LEGACY lat", "MB-FWD lat", "norm")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.0f %12.0f %10.2f | %12v %12v %10.2f\n",
			sizeLabel(r.IOSize), r.LegacyIOPS, r.MBFwdIOPS, r.NormIOPS(),
			r.LegacyLatency.Round(time.Microsecond), r.MBFwdLatency.Round(time.Microsecond), r.NormLatency())
	}
	return b.String()
}

// FormatProcessingTable renders Figures 5/6/8/9 as text.
func FormatProcessingTable(rows []ProcessingRow, byThreads bool) string {
	var b strings.Builder
	key := "size"
	if byThreads {
		key = "threads"
	}
	fmt.Fprintf(&b, "%-8s %10s %10s %10s | %9s %9s | %9s %9s\n",
		key, "FWD iops", "PASSIVE", "ACTIVE", "pas norm", "act norm", "pas lat", "act lat")
	for _, r := range rows {
		label := sizeLabel(r.IOSize)
		if byThreads {
			label = fmt.Sprintf("%d", r.Threads)
		}
		fmt.Fprintf(&b, "%-8s %10.0f %10.0f %10.0f | %9.2f %9.2f | %9.2f %9.2f\n",
			label, r.FwdIOPS, r.PassiveIOPS, r.ActiveIOPS,
			r.NormIOPS(MBPassive), r.NormIOPS(MBActive),
			r.NormLatency(MBPassive), r.NormLatency(MBActive))
	}
	return b.String()
}

func sizeLabel(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

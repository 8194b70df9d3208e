package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sdn"
)

// The soak experiment is the control-plane scalability stress: hundreds of
// tenants share a handful of compute hosts, every tenant drives verified
// I/O through its own middle-box chain, and a churn pool concurrently
// deploys and tears down tenants the whole time. It measures data-path
// latency with and without control-plane churn, the process alloc rate,
// runtime mutex wait, and gates the vswitch flow lookup at 0 allocs/op —
// the properties the sharded platform maps and RCU rule sets exist for.

// SoakConfig sizes a soak run.
type SoakConfig struct {
	// Tenants is the steady-state tenant count (default 500). Every 16th
	// steady tenant runs an active encryption relay; the rest are pure
	// forward chains, so relay goroutine count stays bounded.
	Tenants int
	// Duration is total measured soak time, split evenly between a quiet
	// phase (no control-plane activity) and a churn phase (default 10s).
	Duration time.Duration
}

// The soak's fixed shape. The churn pool — tenants concurrently deploying
// and tearing down — is Tenants/8, at least 1. soakHosts compute hosts are
// shared, ~60+ guests each at full scale, rather than private machines.
// soakMutexWaitPerOp gates runtime mutex wait per I/O op: recorded
// full-scale runs sit at 1.8–8.4ms/op (mutex wait sums across all
// goroutines, so it can exceed wall time); a reintroduced global lock on the
// apply/teardown or data path blows well past it.
const (
	soakHosts          = 8
	soakMutexWaitPerOp = 20 * time.Millisecond
)

// SoakRun is one dated soak result.
type SoakRun struct {
	When         string        `json:"when"`
	Tenants      int           `json:"tenants"`
	ChurnTenants int           `json:"churn_tenants"`
	Hosts        int           `json:"hosts"`
	Duration     time.Duration `json:"duration_ns"`
	SetupTime    time.Duration `json:"setup_ns"`

	Ops         int64 `json:"ops"`
	ChurnCycles int64 `json:"churn_cycles"`

	QuietP50 time.Duration `json:"quiet_p50_ns"`
	QuietP99 time.Duration `json:"quiet_p99_ns"`
	ChurnP50 time.Duration `json:"churn_p50_ns"`
	ChurnP99 time.Duration `json:"churn_p99_ns"`

	// AllocRateMB is process-wide heap allocation over the measured phases,
	// MiB per second.
	AllocRateMB float64 `json:"alloc_rate_mib_per_s"`
	// MutexWait is the runtime's total mutex wait accumulated across the
	// measured phases (/sync/mutex/wait/total:seconds delta), and
	// MutexWaitPerOp is that total divided by the I/O ops that paid it
	// (gated against soakMutexWaitPerOp).
	MutexWait      time.Duration `json:"mutex_wait_ns"`
	MutexWaitPerOp time.Duration `json:"mutex_wait_per_op_ns"`
	// LookupAllocs is allocations per vswitch flow lookup on a live chain
	// switch (must be 0).
	LookupAllocs float64 `json:"lookup_allocs_per_op"`

	GatewayIPsLive      int   `json:"gateway_ips_live_after"`
	IsolationViolations int64 `json:"isolation_violations"`
	IOErrors            int64 `json:"io_errors"`

	// Violations lists failed gates; empty means the soak passed.
	Violations []string `json:"violations,omitempty"`
}

// soakTenant is one steady tenant's live handles.
type soakTenant struct {
	name    string
	depID   string
	pattern byte
	dev     *initiator.Device
}

// RunSoak assembles the shared-host cloud, deploys the steady tenants,
// runs the quiet and churn phases, and evaluates the gates.
func RunSoak(cfg SoakConfig) (*SoakRun, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 500
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	churnTenants := max(cfg.Tenants/8, 1)
	run := &SoakRun{
		Tenants:      cfg.Tenants,
		ChurnTenants: churnTenants,
		Hosts:        soakHosts,
		Duration:     cfg.Duration,
	}

	// A fast fabric: the soak measures control-plane contention, not the
	// calibrated wire costs, so modelled latencies stay out of the way.
	c, err := cloud.New(cloud.Config{ComputeHosts: soakHosts, Model: netsim.Model{
		MTU:       8 * 1024,
		Bandwidth: 1 << 33,
		Latency:   map[netsim.HopKind]time.Duration{},
		PerPacket: map[netsim.HopKind]time.Duration{},
	}})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	p := core.New(c)

	var (
		errs       atomic.Int64
		violations atomic.Int64
	)

	// Deploy the steady tenants through a bounded worker pool.
	setupStart := time.Now()
	tenants := make([]*soakTenant, cfg.Tenants)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 32)
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			st, err := deploySoakTenant(c, p, i)
			if err != nil {
				errs.Add(1)
				fmt.Printf("soak: deploy tenant %d: %v\n", i, err)
				return
			}
			tenants[i] = st
		}(i)
	}
	wg.Wait()
	run.SetupTime = time.Since(setupStart)
	live := tenants[:0]
	for _, st := range tenants {
		if st != nil {
			live = append(live, st)
		}
	}
	tenants = live
	if len(tenants) == 0 {
		return nil, fmt.Errorf("soak: no tenant deployed")
	}

	// Gate: flow lookup on a live chain switch must not allocate. Measured
	// while the bed is quiescent (AllocsPerRun reads global counters).
	run.LookupAllocs = measureLookupAllocs(c, tenants[0].depID)

	// Launch the churn pool's VMs and volumes once; cycles reuse them.
	churnVMs := make([]string, churnTenants)
	churnVols := make([]string, churnTenants)
	for i := range churnVMs {
		vmName := fmt.Sprintf("churn-vm%d", i)
		if _, err := c.LaunchVM(vmName, ""); err != nil {
			return nil, err
		}
		vol, err := c.Volumes.Create(fmt.Sprintf("churn-vol%d", i), 4<<20)
		if err != nil {
			return nil, err
		}
		churnVMs[i], churnVols[i] = vmName, vol.ID
	}

	var (
		ops    atomic.Int64
		cycles atomic.Int64
	)
	hQuiet := &obs.Histogram{}
	hChurn := &obs.Histogram{}

	memBefore := heapAllocated()
	mutexBefore := mutexWaitTotal()
	measured := time.Now()

	// ioPhase drives every steady tenant's verified read-after-write loop
	// until the deadline.
	ioPhase := func(h *obs.Histogram, d time.Duration) {
		stop := make(chan struct{})
		time.AfterFunc(d, func() { close(stop) })
		var pw sync.WaitGroup
		for _, st := range tenants {
			pw.Add(1)
			go func(st *soakTenant) {
				defer pw.Done()
				buf := bytes.Repeat([]byte{st.pattern}, 4096)
				got := make([]byte, 4096)
				for op := 0; ; op++ {
					lba := uint64((op % 64) * 8)
					t0 := time.Now()
					if err := st.dev.WriteAt(buf, lba); err != nil {
						errs.Add(1)
						return
					}
					if err := st.dev.ReadAt(got, lba); err != nil {
						errs.Add(1)
						return
					}
					h.Observe(time.Since(t0))
					ops.Add(2)
					if !bytes.Equal(got, buf) {
						violations.Add(1)
						return
					}
					// The deadline is checked after the op, never before:
					// every tenant must land at least one verified write per
					// phase (op 0 covers lba 0), because the final integrity
					// pass asserts the pattern is durable at lba 0. Under a
					// saturated scheduler a tenant's first timeslice can
					// arrive after the deadline; bailing out up front would
					// leave its volume unwritten and misread as data loss.
					select {
					case <-stop:
						return
					default:
					}
				}
			}(st)
		}
		pw.Wait()
	}

	// Quiet phase: data path only.
	ioPhase(hQuiet, cfg.Duration/2)

	// Churn phase: the same data path while the churn pool concurrently
	// applies and tears down deployments on the shared hosts.
	churnStop := make(chan struct{})
	var cw sync.WaitGroup
	for i := 0; i < churnTenants; i++ {
		cw.Add(1)
		go func(i int) {
			defer cw.Done()
			for cyc := 0; ; cyc++ {
				select {
				case <-churnStop:
					return
				default:
				}
				tenant := fmt.Sprintf("churn%d-c%d", i, cyc)
				pol := &policy.Policy{
					Tenant:      tenant,
					MiddleBoxes: []policy.MiddleBoxSpec{{Name: "fwd", Type: policy.TypeForward}},
					Volumes: []policy.VolumeBinding{{
						VM: churnVMs[i], Volume: churnVols[i], Chain: []string{"fwd"},
					}},
				}
				dep, err := p.Apply(pol)
				if err != nil {
					errs.Add(1)
					continue
				}
				av := dep.Volumes[churnVMs[i]+"/"+churnVols[i]]
				blk := bytes.Repeat([]byte{byte(251)}, 4096)
				if err := av.Device.WriteAt(blk, 0); err != nil {
					errs.Add(1)
				}
				if err := p.Teardown(tenant); err != nil {
					errs.Add(1)
					continue
				}
				cycles.Add(1)
			}
		}(i)
	}
	ioPhase(hChurn, cfg.Duration/2)
	close(churnStop)
	cw.Wait()

	elapsed := time.Since(measured)
	run.MutexWait = mutexWaitTotal() - mutexBefore
	run.AllocRateMB = float64(heapAllocated()-memBefore) / (1 << 20) / elapsed.Seconds()
	run.Ops = ops.Load()
	if run.Ops > 0 {
		run.MutexWaitPerOp = run.MutexWait / time.Duration(run.Ops)
	}
	run.ChurnCycles = cycles.Load()
	run.QuietP50 = hQuiet.Percentile(50)
	run.QuietP99 = hQuiet.Percentile(99)
	run.ChurnP50 = hChurn.Percentile(50)
	run.ChurnP99 = hChurn.Percentile(99)

	// Final integrity pass: every steady tenant wrote its pattern at lba 0
	// (op 0 of the quiet phase, guaranteed by the post-op deadline check),
	// so it must still read back — any other content is cross-tenant bleed
	// or data loss. Then tear everything down and check for leaks.
	for _, st := range tenants {
		buf := bytes.Repeat([]byte{st.pattern}, 4096)
		got := make([]byte, 4096)
		if err := st.dev.ReadAt(got, 0); err != nil {
			errs.Add(1)
		} else if !bytes.Equal(got, buf) {
			violations.Add(1)
		}
	}
	for _, st := range tenants {
		if err := p.Teardown(st.name); err != nil {
			errs.Add(1)
		}
	}
	run.GatewayIPsLive = p.GatewayIPsLive()
	run.IOErrors = errs.Load()
	run.IsolationViolations = violations.Load()

	// Gates.
	if run.LookupAllocs != 0 {
		run.Violations = append(run.Violations,
			fmt.Sprintf("flow lookup allocates %.1f/op (budget 0)", run.LookupAllocs))
	}
	if run.IsolationViolations > 0 {
		run.Violations = append(run.Violations,
			fmt.Sprintf("%d isolation/data-loss violations", run.IsolationViolations))
	}
	if run.IOErrors > 0 {
		run.Violations = append(run.Violations,
			fmt.Sprintf("%d I/O or control-plane errors", run.IOErrors))
	}
	if run.GatewayIPsLive != 0 {
		run.Violations = append(run.Violations,
			fmt.Sprintf("%d gateway IPs leaked after teardown", run.GatewayIPsLive))
	}
	// Churn must not blow up the data-path tail: allow 4x the quiet p99
	// with a 2ms absolute floor so sub-millisecond jitter doesn't flap.
	budget := 4 * run.QuietP99
	if budget < 2*time.Millisecond {
		budget = 2 * time.Millisecond
	}
	if run.ChurnP99 > budget {
		run.Violations = append(run.Violations,
			fmt.Sprintf("churn-phase p99 %v exceeds budget %v (quiet p99 %v)",
				run.ChurnP99, budget, run.QuietP99))
	}
	// Lock contention must stay in the recorded band: mutex wait per op
	// blowing past the budget means a serialization point crept back into
	// the sharded control plane or the data path.
	if run.MutexWaitPerOp > soakMutexWaitPerOp {
		run.Violations = append(run.Violations,
			fmt.Sprintf("mutex wait %v/op exceeds budget %v (total %v over %d ops)",
				run.MutexWaitPerOp, soakMutexWaitPerOp, run.MutexWait.Round(time.Millisecond), run.Ops))
	}
	return run, nil
}

// deploySoakTenant launches one steady tenant: VM, thin volume, and a
// forward chain — or an active encryption relay for every 16th tenant.
func deploySoakTenant(c *cloud.Cloud, p *core.Platform, i int) (*soakTenant, error) {
	tenant := fmt.Sprintf("soak%04d", i)
	vmName := tenant + "-vm"
	if _, err := c.LaunchVM(vmName, ""); err != nil {
		return nil, err
	}
	vol, err := c.Volumes.Create(tenant+"-vol", 4<<20)
	if err != nil {
		return nil, err
	}
	mb := policy.MiddleBoxSpec{Name: "fwd", Type: policy.TypeForward}
	if i%16 == 0 {
		mb = policy.MiddleBoxSpec{
			Name: "enc", Type: policy.TypeEncryption,
			Mode: policy.ModeActive, Params: map[string]string{"key": aesKeyHex},
		}
	}
	pol := &policy.Policy{
		Tenant:      tenant,
		MiddleBoxes: []policy.MiddleBoxSpec{mb},
		Volumes:     []policy.VolumeBinding{{VM: vmName, Volume: vol.ID, Chain: []string{mb.Name}}},
	}
	dep, err := p.Apply(pol)
	if err != nil {
		return nil, err
	}
	av := dep.Volumes[vmName+"/"+vol.ID]
	return &soakTenant{
		name:    tenant,
		depID:   av.DeploymentID,
		pattern: byte(1 + i%250),
		dev:     av.Device,
	}, nil
}

// measureLookupAllocs runs the vswitch flow lookup for a live deployment's
// chain flow on its ingress-host switch and reports allocs/op.
func measureLookupAllocs(c *cloud.Cloud, depID string) float64 {
	d := c.Plane.Deployment(depID)
	if d == nil {
		return -1
	}
	sw := c.Controller.SwitchFor(d.Ingress.Host)
	flow := netsim.Flow{
		Net:     netsim.InstanceNet,
		SrcIP:   d.Ingress.InstanceIP,
		SrcPort: 40000,
		DstIP:   d.Egress.InstanceIP,
		DstPort: 3260,
	}
	return testing.AllocsPerRun(1000, func() {
		sw.Lookup(flow, sdn.IngressStation)
	})
}

// heapAllocated returns cumulative bytes allocated by the process.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mutexWaitTotal reads the runtime's cumulative mutex wait.
func mutexWaitTotal() time.Duration {
	samples := []rtmetrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return time.Duration(samples[0].Value.Float64() * float64(time.Second))
}

// FormatSoak renders the soak report.
func FormatSoak(run *SoakRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: %d steady tenants + %d churners on %d hosts, %v measured (setup %v)\n",
		run.Tenants, run.ChurnTenants, run.Hosts, run.Duration, run.SetupTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  I/O ops            %d (verified read-after-write)\n", run.Ops)
	fmt.Fprintf(&b, "  churn cycles       %d deploy+teardown during churn phase\n", run.ChurnCycles)
	fmt.Fprintf(&b, "  quiet p50/p99      %v / %v\n",
		run.QuietP50.Round(time.Microsecond), run.QuietP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  churn p50/p99      %v / %v\n",
		run.ChurnP50.Round(time.Microsecond), run.ChurnP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  alloc rate         %.1f MiB/s\n", run.AllocRateMB)
	fmt.Fprintf(&b, "  mutex wait         %v total across phases (%v/op)\n",
		run.MutexWait.Round(time.Microsecond), run.MutexWaitPerOp.Round(time.Microsecond))
	fmt.Fprintf(&b, "  flow lookup        %.1f allocs/op\n", run.LookupAllocs)
	fmt.Fprintf(&b, "  gateway IPs live   %d after teardown\n", run.GatewayIPsLive)
	fmt.Fprintf(&b, "  isolation          %d violations, %d I/O errors\n",
		run.IsolationViolations, run.IOErrors)
	if len(run.Violations) == 0 {
		b.WriteString("  PASS: all soak gates held\n")
	} else {
		for _, v := range run.Violations {
			fmt.Fprintf(&b, "  FAIL: %s\n", v)
		}
	}
	return b.String()
}

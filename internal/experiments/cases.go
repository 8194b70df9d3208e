package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/extfs"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/semantic"
	"repro/internal/services/crypt"
	"repro/internal/workload"
)

// encryptedVolume provisions vmName's volume behind the AES-256 cipher of
// the Figure 10/11 comparison: inside the tenant VM (legacy attach, the
// cipher charged to the compute host) or in an active-relay middle-box on
// compute3. The tenant-side deployment pays extra for dm-crypt's spinlock
// stalls on the application's vCPU (the effect Section V-B2 identifies);
// the middle-box runs the same cipher without contending with the
// foreground application.
func (l *Lab) encryptedVolume(vmName string, inMB bool) (blockdev.Device, func(), error) {
	if inMB {
		return l.deployNew(vmName, policy.MiddleBoxSpec{
			Name: "enc", Type: policy.TypeEncryption, Host: "compute3",
			Params: map[string]string{"key": aesKeyHex, "cipherCostNsPerKiB": "8000"},
		})
	}
	raw, cleanup, err := l.provision(Legacy, vmName)
	if err != nil {
		return nil, nil, err
	}
	cost := crypt.CostModel{PerKiB: 12 * time.Microsecond, CPU: l.Cloud.HostCPU("compute1"), Component: "cipher"}
	dev, err := crypt.NewDevice(raw, testKey(), cost)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return dev, cleanup, nil
}

// CPURow is one bar group of Figure 10: per-host CPU utilization during
// the FTP transfer, plus the achieved bandwidth.
type CPURow struct {
	Deployment string // "tenant-vm" or "middle-box"
	// Utilization fractions (0..1) per role.
	TenantHost  float64
	MBHost      float64
	StorageHost float64
	// Total is the summed utilization the paper compares.
	Total float64
	// Bandwidth is the FTP transfer rate.
	BandwidthMBps float64
}

// CPUBreakdown reproduces Figure 10: the same AES-256 encryption performed
// inside the tenant VM versus inside a middle-box, under an FTP-style
// large-file transfer; CPU utilization is accounted per host.
func CPUBreakdown() ([]CPURow, error) {
	const transfer = 24 << 20
	var rows []CPURow
	for _, d := range []struct {
		label string
		inMB  bool
	}{{"tenant-vm", false}, {"middle-box", true}} {
		l, err := NewLab()
		if err != nil {
			return nil, err
		}
		dev, cleanup, err := l.encryptedVolume("vm-ftp-"+d.label, d.inMB)
		if err != nil {
			l.Close()
			return nil, err
		}
		row, err := runFTPAndAccount(l, dev, d.label, transfer)
		cleanup()
		l.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runFTPAndAccount(l *Lab, dev blockdev.Device, label string, transfer int64) (*CPURow, error) {
	hosts := []string{"compute1", "compute3", "storage1"}
	for _, h := range hosts {
		l.Cloud.HostCPU(h).Reset()
	}
	// Both deployments transfer at the same offered load so host CPU
	// utilizations compare directly (the paper's runs both saturate the
	// same storage bandwidth).
	const pace = 40.0 // MB/s
	up, err := workload.RunFTPUpload(workload.FTPConfig{Dev: dev, FileSize: transfer, RateMBps: pace})
	if err != nil {
		return nil, err
	}
	down, err := workload.RunFTPDownload(workload.FTPConfig{Dev: dev, FileSize: transfer, RateMBps: pace})
	if err != nil {
		return nil, err
	}
	row := &CPURow{
		Deployment:    label,
		TenantHost:    totalUtil(l, "compute1"),
		MBHost:        totalUtil(l, "compute3"),
		StorageHost:   totalUtil(l, "storage1"),
		BandwidthMBps: (up.MBps + down.MBps) / 2,
	}
	row.Total = row.TenantHost + row.MBHost + row.StorageHost
	return row, nil
}

func totalUtil(l *Lab, host string) float64 {
	acct := l.Cloud.HostCPU(host)
	var u float64
	for comp := range acct.Components() {
		u += acct.Utilization(comp)
	}
	return u
}

func testKey() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	return key
}

// FormatCPUTable renders Figure 10 as text.
func FormatCPUTable(rows []CPURow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %8s %10s\n",
		"encryption", "tenant host", "MB host", "storage", "total", "MB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %11.1f%% %11.1f%% %11.1f%% %7.1f%% %10.1f\n",
			r.Deployment, r.TenantHost*100, r.MBHost*100, r.StorageHost*100, r.Total*100, r.BandwidthMBps)
	}
	return b.String()
}

// PostmarkComparison reproduces Figure 11: PostMark component rates with
// tenant-side versus middle-box encryption.
type PostmarkComparison struct {
	TenantSide *workload.PostmarkResult
	MiddleBox  *workload.PostmarkResult
}

// Improvement returns the middle-box-over-tenant ratio for a component
// selector.
func (p *PostmarkComparison) Improvement(f func(*workload.PostmarkResult) float64) float64 {
	t := f(p.TenantSide)
	if t == 0 {
		return 0
	}
	return f(p.MiddleBox) / t
}

// RunPostmarkComparison executes Figure 11's two configurations.
func RunPostmarkComparison() (*PostmarkComparison, error) {
	run := func(mb bool) (*workload.PostmarkResult, error) {
		l, err := NewLab()
		if err != nil {
			return nil, err
		}
		defer l.Close()
		dev, cleanup, err := l.encryptedVolume("vm-pm", mb)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		// The guest's page cache sits above the virtual disk (above
		// dm-crypt in the tenant-side deployment), absorbing re-reads so
		// writes dominate the I/O path — as on the real testbed.
		dev = blockdev.NewCacheDisk(dev, 16<<20)
		fs, err := extfs.Mkfs(dev, extfs.Options{})
		if err != nil {
			return nil, err
		}
		return workload.RunPostmark(workload.PostmarkConfig{
			FS: fs, Files: 60, Transactions: 150, Seed: 2016,
		})
	}
	tenant, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("experiments: tenant-side postmark: %w", err)
	}
	mb, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("experiments: middle-box postmark: %w", err)
	}
	return &PostmarkComparison{TenantSide: tenant, MiddleBox: mb}, nil
}

// FormatPostmarkTable renders Figure 11 as text.
func FormatPostmarkTable(p *PostmarkComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %12s %8s\n", "component", "tenant-side", "middle-box", "norm")
	row := func(name string, f func(*workload.PostmarkResult) float64) {
		fmt.Fprintf(&b, "%-18s %12.1f %12.1f %8.2f\n",
			name, f(p.TenantSide), f(p.MiddleBox), p.Improvement(f))
	}
	row("read ops/s", func(r *workload.PostmarkResult) float64 { return r.ReadOpsPerSec })
	row("append ops/s", func(r *workload.PostmarkResult) float64 { return r.AppendOpsPerSec })
	row("file creation/s", func(r *workload.PostmarkResult) float64 { return r.CreateOpsPerSec })
	row("file deletion/s", func(r *workload.PostmarkResult) float64 { return r.DeleteOpsPerSec })
	row("read MB/s", func(r *workload.PostmarkResult) float64 { return r.ReadMBps })
	row("write MB/s", func(r *workload.PostmarkResult) float64 { return r.WriteMBps })
	return b.String()
}

// ReplicationRun is the Figure 13 result: the MySQL-stand-in's TPS
// timeline with three replicas (one failing mid-run) against the
// single-store baseline.
type ReplicationRun struct {
	// Timeline3R is TPS per bucket for the 3-replica run.
	Timeline3R []float64
	// FailBucket is the bucket index where the replica was failed.
	FailBucket int
	// Avg3RBefore / Avg3RAfter are mean TPS before and after the failure.
	Avg3RBefore float64
	Avg3RAfter  float64
	// Avg1R is the single-store baseline's mean TPS.
	Avg1R float64
	// Errors3R counts failed transactions in the replica run (should stay
	// near zero through the failover).
	Errors3R int64
}

// RunReplication reproduces Figure 13.
func RunReplication(duration time.Duration) (*ReplicationRun, error) {
	if duration <= 0 {
		duration = 3 * time.Second
	}
	const threads = 24 // 4 client VMs x 6 requesting threads
	bucket := duration / 12

	// Baseline: one store, no middle-box. Replication volumes live on
	// single spindles with a bounded device queue.
	const spindleQueue = 4
	l, err := NewLabQueuedDisk(spindleQueue)
	if err != nil {
		return nil, err
	}
	rawDev, cleanup, err := l.provision(Legacy, "vm-db-1r")
	if err != nil {
		l.Close()
		return nil, err
	}
	db1, err := minidb.Open(rawDev, 4096)
	if err != nil {
		cleanup()
		l.Close()
		return nil, err
	}
	base, err := workload.RunOLTP(workload.OLTPConfig{
		DB: db1, Rows: 500, Threads: threads, Duration: duration / 2, Bucket: bucket, Seed: 7,
	})
	cleanup()
	l.Close()
	if err != nil {
		return nil, err
	}

	// 3-replica run with a mid-run failure.
	l, err = NewLabQueuedDisk(spindleQueue)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	_, vol, err := l.vmVolume("vm-db-3r", volumeSize)
	if err != nil {
		return nil, err
	}
	dep, dev, err := l.deploy("vm-db-3r", vol.ID, "compute2", "compute4", replicationMB(3))
	if err != nil {
		return nil, err
	}
	defer func() { _ = l.Platform.Teardown(dep.Tenant) }()
	db3, err := minidb.Open(dev, 4096)
	if err != nil {
		return nil, err
	}

	// Fail one replica at the run's midpoint (the paper's 60th second).
	failAfter := duration / 2
	failBucket := int(failAfter / bucket)
	stop := make(chan struct{})
	go func() {
		select {
		case <-time.After(failAfter):
			dep.ReplicaVolumes["rep"][0].InjectFault(errors.New("injected: iscsi connection closed"))
		case <-stop:
		}
	}()
	res, err := workload.RunOLTP(workload.OLTPConfig{
		DB: db3, Rows: 500, Threads: threads, Duration: duration, Bucket: bucket, Seed: 7,
	})
	close(stop)
	if err != nil {
		return nil, err
	}

	out := &ReplicationRun{
		Timeline3R: res.Timeline,
		FailBucket: failBucket,
		Avg1R:      base.TPS,
		Errors3R:   res.Errors,
	}
	var beforeSum, afterSum float64
	var beforeN, afterN int
	for i, v := range res.Timeline {
		if v == 0 {
			continue
		}
		if i < failBucket {
			beforeSum += v
			beforeN++
		} else if i > failBucket {
			afterSum += v
			afterN++
		}
	}
	if beforeN > 0 {
		out.Avg3RBefore = beforeSum / float64(beforeN)
	}
	if afterN > 0 {
		out.Avg3RAfter = afterSum / float64(afterN)
	}
	return out, nil
}

// FormatReplicationRun renders Figure 13 as text.
func FormatReplicationRun(r *ReplicationRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline (TPS per bucket, | marks the replica failure):\n  ")
	for i, v := range r.Timeline3R {
		if i == r.FailBucket {
			b.WriteString("| ")
		}
		fmt.Fprintf(&b, "%.0f ", v)
	}
	fmt.Fprintf(&b, "\n3-replica TPS before failure: %.0f\n", r.Avg3RBefore)
	fmt.Fprintf(&b, "3-replica TPS after failure:  %.0f\n", r.Avg3RAfter)
	fmt.Fprintf(&b, "1-replica baseline TPS:       %.0f\n", r.Avg1R)
	fmt.Fprintf(&b, "3R/1R improvement:            %.2fx (paper: ~1.8x)\n", r.Avg3RBefore/r.Avg1R)
	fmt.Fprintf(&b, "transaction errors during failover: %d\n", r.Errors3R)
	return b.String()
}

// ReconstructionEvent pairs the Table II tenant-level operations with the
// Table I reconstructed log.
type ReconstructionResult struct {
	// VMOps are the operations issued in the tenant VM (Table II).
	VMOps []string
	// Log is the reconstructed block-level access log (Table I).
	Log []semantic.Event
}

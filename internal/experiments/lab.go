// Package experiments reproduces the paper's evaluation (Section V): it
// assembles the testbed topology, runs each figure's workload sweep, and
// reports the same normalized series the paper plots. cmd/stormbench runs
// it, one named suite per result; the package's tests assert the shapes.
//
// Constants here are the scaled-down calibration of the 10-machine 1 GbE
// testbed; see EXPERIMENTS.md for the calibration notes and measured-vs-
// paper tables.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/volume"
)

// aesKeyHex is the tenant's AES-256 key used by encryption scenarios.
const aesKeyHex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// LabModel returns the calibrated fabric cost model.
func LabModel() netsim.Model {
	return netsim.Model{
		MTU:       8 * 1024,
		Bandwidth: 400 << 20, // 1 GbE-class serialization at the time scale
		Latency: map[netsim.HopKind]time.Duration{
			netsim.HopVirtio:  2500 * time.Nanosecond,
			netsim.HopWire:    3750 * time.Nanosecond,
			netsim.HopSwitch:  1250 * time.Nanosecond,
			netsim.HopForward: 2500 * time.Nanosecond,
			netsim.HopBridge:  1500 * time.Nanosecond,
		},
		PerPacket: map[netsim.HopKind]time.Duration{
			netsim.HopVirtio:  4 * time.Microsecond,
			netsim.HopWire:    750 * time.Nanosecond,
			netsim.HopSwitch:  750 * time.Nanosecond,
			netsim.HopForward: 2500 * time.Nanosecond,
			netsim.HopBridge:  1 * time.Microsecond,
		},
	}
}

// LabDiskReadModel: reads miss the target's cache — a fixed seek/queue
// cost plus 1 ns/B of streaming time (256 KiB adds ~262 µs).
func LabDiskReadModel() blockdev.ServiceModel {
	return blockdev.ServiceModel{
		PerRequest: 1750 * time.Microsecond,
		PerByte:    3 * time.Nanosecond,
	}
}

// LabDiskWriteModel: writes land in the target's write cache — fast
// acknowledgement plus a small streaming cost.
func LabDiskWriteModel() blockdev.ServiceModel {
	return blockdev.ServiceModel{
		PerRequest: 150 * time.Microsecond,
	}
}

// Violations lists the gates a suite run broke; empty means it passed.
type Violations []string

// write ends a suite report with its verdict.
func (v Violations) write(b *strings.Builder, suite string) {
	if len(v) == 0 {
		fmt.Fprintf(b, "  PASS: all %s gates held\n", suite)
	}
	for _, g := range v {
		fmt.Fprintf(b, "  FAIL: %s\n", g)
	}
}

// now dates a suite run.
func now() string { return time.Now().UTC().Format(time.RFC3339) }

// Lab is one assembled testbed.
type Lab struct {
	Cloud    *cloud.Cloud
	Platform *core.Platform
	tenantN  int
}

// NewLab assembles the Figure 1 topology: four compute hosts, one storage
// host, calibrated cost models.
func NewLab() (*Lab, error) {
	return NewLabWithDisk(LabDiskReadModel(), LabDiskWriteModel())
}

// NewLabWithDisk assembles the topology with explicit medium models.
func NewLabWithDisk(read, write blockdev.ServiceModel) (*Lab, error) {
	return newLab(read, write, LabDiskConcurrency)
}

// NewLabQueuedDisk assembles the topology with the default medium models
// and a bounded per-volume device queue — the single-spindle regime of the
// replication case study, where read striping across replicas pays off.
func NewLabQueuedDisk(concurrency int) (*Lab, error) {
	return newLab(LabDiskReadModel(), LabDiskWriteModel(), concurrency)
}

func newLab(read, write blockdev.ServiceModel, concurrency int) (*Lab, error) {
	c, err := cloud.New(cloud.Config{
		ComputeHosts:    4,
		Model:           LabModel(),
		DiskRead:        read,
		DiskWrite:       write,
		DiskConcurrency: concurrency,
	})
	if err != nil {
		return nil, err
	}
	return &Lab{Cloud: c, Platform: core.New(c)}, nil
}

// LabDiskConcurrency bounds each volume's concurrent medium accesses; at
// high thread counts the device queue saturates and latency grows, as on
// the loaded testbed.
const LabDiskConcurrency = 0 // unlimited: the array absorbs the queue

// Close tears the lab down.
func (l *Lab) Close() { l.Cloud.Close() }

// nextTenant hands out unique tenant names within a lab.
func (l *Lab) nextTenant() string {
	l.tenantN++
	return fmt.Sprintf("tenant%02d", l.tenantN)
}

// Scenario names the evaluated configurations.
type Scenario string

// Evaluated configurations (Section V-A).
const (
	// Legacy is the direct VM-to-target baseline without StorM.
	Legacy Scenario = "LEGACY"
	// MBFwd routes through a middle-box that only forwards (no relay).
	MBFwd Scenario = "MB-FWD"
	// MBPassive intercepts with the passive relay running the stream
	// cipher service.
	MBPassive Scenario = "MB-PASSIVE-RELAY"
	// MBActive intercepts with the active relay running the stream cipher
	// service.
	MBActive Scenario = "MB-ACTIVE-RELAY"
)

// volumeSize for the micro-benchmarks (thin-provisioned).
const volumeSize = 64 << 20

// provision builds one scenario and returns the VM-side device. The
// worst-case placement of Section V-A is used: tenant VM, ingress gateway,
// middle-box, and egress gateway all on different physical hosts.
func (l *Lab) provision(s Scenario, vmName string) (blockdev.Device, func(), error) {
	if s == Legacy {
		vm, vol, err := l.vmVolume(vmName, volumeSize)
		if err != nil {
			return nil, nil, err
		}
		dev, err := l.Cloud.AttachVolume(vm, vol.ID)
		if err != nil {
			return nil, nil, err
		}
		return dev, func() { _ = dev.Close() }, nil
	}
	mb := policy.MiddleBoxSpec{Name: "mb1", Type: policy.TypeEncryption, Host: "compute3", Params: map[string]string{"key": aesKeyHex}}
	switch s {
	case MBFwd:
		mb = policy.MiddleBoxSpec{Name: "mb1", Type: policy.TypeForward, Host: "compute3"}
	case MBPassive:
		mb.Mode = policy.ModePassive
	case MBActive:
		mb.Mode = policy.ModeActive
	default:
		return nil, nil, fmt.Errorf("experiments: unknown scenario %q", s)
	}
	return l.deployNew(vmName, mb)
}

// vmVolume launches vmName on compute1 and creates its volume.
func (l *Lab) vmVolume(vmName string, size uint64) (*cloud.VM, *volume.Volume, error) {
	vm, err := l.Cloud.LaunchVM(vmName, "compute1")
	if err != nil {
		return nil, nil, err
	}
	vol, err := l.Cloud.Volumes.Create(vmName+"-vol", size)
	return vm, vol, err
}

// deploy applies a policy of its own tenant that steers vmName's volume
// volID through mbs, in order, with the ingress and egress gateways on the
// given hosts. It returns the deployment and the VM-side device.
func (l *Lab) deploy(vmName, volID, ingress, egress string, mbs ...policy.MiddleBoxSpec) (*core.TenantDeployment, blockdev.Device, error) {
	pol := &policy.Policy{Tenant: l.nextTenant(), MiddleBoxes: mbs}
	var chain []string
	for _, mb := range mbs {
		chain = append(chain, mb.Name)
	}
	pol.Volumes = []policy.VolumeBinding{{VM: vmName, Volume: volID, Chain: chain, IngressHost: ingress, EgressHost: egress}}
	dep, err := l.Platform.Apply(pol)
	if err != nil {
		return nil, nil, err
	}
	return dep, dep.Volumes[vmName+"/"+volID].Device, nil
}

// deployNew gives vmName a fresh volume and deploys it through mbs with the
// worst-case gateway placement (see provision). The returned function tears
// the deployment down.
func (l *Lab) deployNew(vmName string, mbs ...policy.MiddleBoxSpec) (blockdev.Device, func(), error) {
	_, vol, err := l.vmVolume(vmName, volumeSize)
	if err != nil {
		return nil, nil, err
	}
	dep, dev, err := l.deploy(vmName, vol.ID, "compute2", "compute4", mbs...)
	if err != nil {
		return nil, nil, err
	}
	return dev, func() { _ = l.Platform.Teardown(dep.Tenant) }, nil
}

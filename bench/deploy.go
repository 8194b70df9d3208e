package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// Two cost regimes. "zero" charges no simtime anywhere, so every
// microsecond measured is this repository's code; "lab" is the calibrated
// testbed whose modelled waits reproduce the paper's shapes. The lab
// constants are a pinned copy of experiments.LabModel / LabDisk*Model: the
// benchmark must not move when that package is refactored.
type regime string

const (
	regimeZero regime = "zero"
	regimeLab  regime = "lab"
)

// aesKeyHex is the tenant's AES-256 key in every encrypted chain.
const aesKeyHex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

func (r regime) cloudConfig() cloud.Config {
	if r == regimeZero {
		return cloud.Config{
			ComputeHosts: 4,
			Model: netsim.Model{
				MTU:       8 * 1024,
				Latency:   map[netsim.HopKind]time.Duration{},
				PerPacket: map[netsim.HopKind]time.Duration{},
			},
		}
	}
	return cloud.Config{
		ComputeHosts: 4,
		Model: netsim.Model{
			MTU:       8 * 1024,
			Bandwidth: 400 << 20,
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
		},
		DiskRead:  blockdev.ServiceModel{PerRequest: 1750 * time.Microsecond, PerByte: 3 * time.Nanosecond},
		DiskWrite: blockdev.ServiceModel{PerRequest: 150 * time.Microsecond},
	}
}

// relayParams returns a relay box's policy params under the regime. The
// policy defaults silently carry an 8 µs/batch intercept charge and a
// 500 ns/KiB cipher charge; "zero" must switch both off, which also selects
// the relay's inline-exec path.
func (r regime) relayParams(extra map[string]string) map[string]string {
	p := map[string]string{}
	if r == regimeZero {
		p["interceptPerBatchNs"] = "0"
		p["cipherCostNsPerKiB"] = "0"
	}
	for k, v := range extra {
		p[k] = v
	}
	return p
}

// scenario describes what sits between the VM and its volume.
type scenario struct {
	// boxes is the chain in traversal order; empty means LEGACY (direct
	// attach, no StorM).
	boxes []policy.MiddleBoxSpec
	// volumeBytes sizes the volume (thin-provisioned).
	volumeBytes uint64
	// stateful scenarios keep journals under the platform state dir.
	stateful bool
}

func encryptionBox(r regime, mode policy.Mode, extra map[string]string) policy.MiddleBoxSpec {
	params := r.relayParams(extra)
	params["key"] = aesKeyHex
	return policy.MiddleBoxSpec{Name: "enc", Type: policy.TypeEncryption, Host: "compute3", Mode: mode, Params: params}
}

// lab is one mini-cloud with its platform.
type lab struct {
	cloud    *cloud.Cloud
	platform *core.Platform
	stateDir string
	tenants  int
}

func newLab(r regime, stateRoot string) (*lab, error) {
	c, err := cloud.New(r.cloudConfig())
	if err != nil {
		return nil, err
	}
	l := &lab{cloud: c, platform: core.New(c)}
	if stateRoot != "" {
		if l.stateDir, err = os.MkdirTemp(stateRoot, "lab-"); err != nil {
			c.Close()
			return nil, err
		}
		l.platform.SetStateDir(l.stateDir)
	}
	return l, nil
}

func (l *lab) close() {
	l.cloud.Close()
	if l.stateDir != "" {
		_ = os.RemoveAll(l.stateDir)
	}
}

// attachment is one VM-side device and the handles the checks need.
type attachment struct {
	dev    blockdev.Device
	dep    *core.TenantDeployment // nil for LEGACY
	volID  string
	volKey string
}

// device returns the current VM-side device; crash recovery replaces it.
func (a *attachment) device() blockdev.Device {
	if a.dep != nil {
		return a.dep.Volumes[a.volKey].Device
	}
	return a.dev
}

// attach provisions one scenario with the paper's worst-case placement
// (Section V-A): VM on compute1, ingress gateway on compute2, middle-boxes
// on compute3, egress gateway on compute4.
func (l *lab) attach(sc scenario) (*attachment, error) {
	l.tenants++
	vmName := fmt.Sprintf("vm%d", l.tenants)
	vm, err := l.cloud.LaunchVM(vmName, "compute1")
	if err != nil {
		return nil, err
	}
	vol, err := l.cloud.Volumes.Create(vmName+"-vol", sc.volumeBytes)
	if err != nil {
		return nil, err
	}
	if len(sc.boxes) == 0 {
		dev, err := l.cloud.AttachVolume(vm, vol.ID)
		if err != nil {
			return nil, err
		}
		return &attachment{dev: dev, volID: vol.ID}, nil
	}
	chain := make([]string, len(sc.boxes))
	for i, b := range sc.boxes {
		chain[i] = b.Name
	}
	dep, err := l.platform.Apply(&policy.Policy{
		Tenant:      fmt.Sprintf("tenant%d", l.tenants),
		MiddleBoxes: sc.boxes,
		Volumes: []policy.VolumeBinding{{
			VM: vmName, Volume: vol.ID, Chain: chain,
			IngressHost: "compute2", EgressHost: "compute4",
		}},
	})
	if err != nil {
		return nil, err
	}
	key := vmName + "/" + vol.ID
	return &attachment{dev: dep.Volumes[key].Device, dep: dep, volID: vol.ID, volKey: key}, nil
}

// Package policy implements StorM's tenant policy interface (Section
// III-D): the declarative description tenants submit to the provider
// naming which VMs and volumes use middle-box services, what each
// middle-box runs and with which virtual resources, and how middle-boxes
// are chained per volume. The platform (internal/core) parses and deploys
// these policies.
package policy

import (
	"encoding/json"
	"fmt"

	"repro/internal/xerr"
)

// ServiceType names a middle-box service.
type ServiceType string

// Supported service types. TypeForward is a pass-through middle-box (the
// MB-FWD configuration used in the evaluation).
const (
	TypeMonitor     ServiceType = "access-monitor"
	TypeEncryption  ServiceType = "encryption"
	TypeReplication ServiceType = "replication"
	TypeForward     ServiceType = "forward"
	// TypeReplicate is the content-addressed replication service: writes
	// are chunked, addressed by content hash (dedup), journaled, and fanned
	// out to N content-addressed backend volumes with quorum acks; a
	// background scrubber repairs divergent backends from the healthy
	// majority.
	TypeReplicate ServiceType = "replicate"
)

// Mode selects the relay design for a middle-box.
type Mode string

// Relay modes. ModeForward is implied by TypeForward.
const (
	ModeActive  Mode = "active"
	ModePassive Mode = "passive"
	ModeForward Mode = "forward"
)

// MiddleBoxSpec declares one middle-box VM.
type MiddleBoxSpec struct {
	Name string      `json:"name"`
	Type ServiceType `json:"type"`
	// Host optionally pins placement.
	Host string `json:"host,omitempty"`
	// Mode selects active or passive relaying (active by default).
	Mode Mode `json:"mode,omitempty"`
	// VCPUs and MemoryMB size the middle-box VM. VCPUs also bounds the
	// relay's concurrent packet-copy paths unless the "copyThreads" param
	// overrides it.
	VCPUs    int `json:"vcpus,omitempty"`
	MemoryMB int `json:"memoryMB,omitempty"`
	// MinInstances / MaxInstances turn the middle-box into an elastic
	// instance group: the platform provisions MinInstances members up
	// front (default 1) and the orchestrator may grow the group to
	// MaxInstances (default MinInstances) under load. Only stateless
	// services — encryption and forward — may scale beyond one instance;
	// monitors reconstruct a single file-system view and replication owns
	// its backup volumes, so splitting their flows would diverge state.
	MinInstances int `json:"minInstances,omitempty"`
	MaxInstances int `json:"maxInstances,omitempty"`
	// Params carries service-specific settings as strings. The keys, the
	// service types that accept each, their syntax and defaults are the
	// params table (params.go); Validate refuses anything else, and the
	// typed accessors read them.
	Params map[string]string `json:"params,omitempty"`
}

// VolumeBinding routes one VM's volume through a chain of middle-boxes.
type VolumeBinding struct {
	VM     string `json:"vm"`
	Volume string `json:"volume"`
	// Chain lists middle-box names in traversal order.
	Chain []string `json:"chain"`
	// IngressHost / EgressHost optionally pin the gateway pair (defaults:
	// ingress co-located with the VM, egress chosen by the platform).
	IngressHost string `json:"ingressHost,omitempty"`
	EgressHost  string `json:"egressHost,omitempty"`
}

// Policy is a tenant's full middle-box deployment request.
type Policy struct {
	Tenant      string          `json:"tenant"`
	MiddleBoxes []MiddleBoxSpec `json:"middleboxes"`
	Volumes     []VolumeBinding `json:"volumes"`
}

// Parse decodes a JSON policy and validates it. Every error is
// xerr.Terminal: the same bytes can never deploy.
func Parse(data []byte) (*Policy, error) {
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, xerr.Errorf(xerr.Terminal, "policy: parse: %w", err)
	}
	for i := range p.MiddleBoxes {
		if len(p.MiddleBoxes[i].Params) == 0 {
			p.MiddleBoxes[i].Params = nil // "params": {} sets nothing
		}
	}
	if err := p.Validate(); err != nil {
		return nil, xerr.Wrap(xerr.Terminal, err)
	}
	return &p, nil
}

// Validate checks structural and service-specific constraints.
func (p *Policy) Validate() error {
	if p.Tenant == "" {
		return fmt.Errorf("policy: tenant name required")
	}
	mbs := make(map[string]*MiddleBoxSpec, len(p.MiddleBoxes))
	for i := range p.MiddleBoxes {
		mb := &p.MiddleBoxes[i]
		if mb.Name == "" {
			return fmt.Errorf("policy: middle-box %d missing name", i)
		}
		if _, dup := mbs[mb.Name]; dup {
			return fmt.Errorf("policy: duplicate middle-box %q", mb.Name)
		}
		mbs[mb.Name] = mb
		switch mb.Type {
		case TypeMonitor, TypeForward, TypeEncryption, TypeReplication:
		case TypeReplicate:
			if mb.EffectiveMode() != ModeActive {
				return fmt.Errorf("policy: middle-box %q: replicate requires an active relay (it intercepts writes)", mb.Name)
			}
		default:
			return fmt.Errorf("policy: middle-box %q has unknown type %q", mb.Name, mb.Type)
		}
		switch mb.Mode {
		case "", ModeActive, ModePassive:
		case ModeForward:
			if mb.Type != TypeForward {
				return fmt.Errorf("policy: middle-box %q: forward mode requires forward type", mb.Name)
			}
		default:
			return fmt.Errorf("policy: middle-box %q has unknown mode %q", mb.Name, mb.Mode)
		}
		if mb.Type == TypeForward && mb.Mode != "" && mb.Mode != ModeForward {
			return fmt.Errorf("policy: middle-box %q: forward type cannot run a relay", mb.Name)
		}
		if mb.MinInstances < 0 || mb.MaxInstances < 0 {
			return fmt.Errorf("policy: middle-box %q: negative instance bounds", mb.Name)
		}
		min, max := mb.EffectiveMinInstances(), mb.EffectiveMaxInstances()
		if max > 16 {
			return fmt.Errorf("policy: middle-box %q: maxInstances %d exceeds the cap of 16", mb.Name, max)
		}
		if max < min {
			return fmt.Errorf("policy: middle-box %q: maxInstances %d below minInstances %d", mb.Name, max, min)
		}
		if max > 1 && mb.Type != TypeEncryption && mb.Type != TypeForward {
			return fmt.Errorf("policy: middle-box %q: type %q cannot scale beyond one instance", mb.Name, mb.Type)
		}
		if err := mb.validateParams(); err != nil {
			return err
		}
	}
	if len(p.Volumes) == 0 {
		return fmt.Errorf("policy: at least one volume binding required")
	}
	monitorUse := make(map[string]int)
	for i, vb := range p.Volumes {
		if vb.VM == "" || vb.Volume == "" {
			return fmt.Errorf("policy: volume binding %d missing vm or volume", i)
		}
		for _, name := range vb.Chain {
			mb, ok := mbs[name]
			if !ok {
				return fmt.Errorf("policy: volume %q chains unknown middle-box %q", vb.Volume, name)
			}
			if mb.Type == TypeMonitor {
				monitorUse[name]++
			}
		}
	}
	// A monitor reconstructs one file system; it serves exactly one volume.
	for name, uses := range monitorUse {
		if uses > 1 {
			return fmt.Errorf("policy: monitor middle-box %q chained by %d volumes; monitors serve one volume", name, uses)
		}
	}
	return nil
}

// EffectiveMode resolves the relay mode for a spec.
func (m *MiddleBoxSpec) EffectiveMode() Mode {
	if m.Type == TypeForward {
		return ModeForward
	}
	if m.Mode == "" {
		return ModeActive
	}
	return m.Mode
}

// EffectiveMinInstances resolves the group's initial size (default 1).
func (m *MiddleBoxSpec) EffectiveMinInstances() int {
	if m.MinInstances <= 0 {
		return 1
	}
	return m.MinInstances
}

// EffectiveMaxInstances resolves the group's growth ceiling (default the
// minimum: a fixed-size group).
func (m *MiddleBoxSpec) EffectiveMaxInstances() int {
	if m.MaxInstances <= 0 {
		return m.EffectiveMinInstances()
	}
	return m.MaxInstances
}

// Scalable reports whether the middle-box is an elastic instance group.
func (m *MiddleBoxSpec) Scalable() bool {
	return m.EffectiveMaxInstances() > 1
}

// Grouped reports whether the middle-box is provisioned through the
// instance-group machinery. All scalable services are; so is replicate,
// pinned at one instance (its backend volumes and journal are
// single-writer) but grouped so the orchestrator's crash-replacement loop
// covers it.
func (m *MiddleBoxSpec) Grouped() bool {
	return m.Scalable() || m.Type == TypeReplicate
}

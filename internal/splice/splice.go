// Package splice implements StorM's network splicing (Section III-A): the
// forwarding plane that selectively brings a tenant VM's storage flow from
// the storage network into the instance network, through a pair of storage
// gateways and an SDN-steered middle-box chain, and back to the storage
// server — plus connection attribution and the atomic volume-attachment
// protocol.
//
// The plane installs itself as the fabric's RouteFunc. Flows without
// matching NAT rules follow the legacy direct path; flows captured during
// an atomic attach traverse ingress gateway -> middle-box chain -> egress
// gateway -> target, with IP masquerading hiding storage-network addresses
// from the instance network exactly as in Figure 3.
package splice

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/nat"
	"repro/internal/netsim"
	"repro/internal/sdn"
	"repro/internal/vswitch"
)

// iSCSI well-known port, used by gateway translation rules.
const iscsiPort = 3260

// ErrIsolated reports a tenant VM dialing a protected middle-box or
// gateway address directly (Section II-C's isolation guarantee).
var ErrIsolated = errors.New("splice: destination is isolated from tenant VMs")

// GatewaySpec places one storage gateway: a host with NICs on both networks
// and an address inside the tenant's isolated instance network space.
type GatewaySpec struct {
	Name       string
	Host       string
	InstanceIP string
}

// Deployment wires one VM's volume through a middle-box chain.
type Deployment struct {
	// ID uniquely names the deployment; chain rules derive from it.
	ID string
	// VM names the tenant VM endpoint whose flow is spliced.
	VM string
	// VMHost is the compute host running the VM.
	VMHost string
	// VolumeIQN is the volume's target name (for attribution).
	VolumeIQN string
	// TargetAddr is the storage server's address on the storage network.
	TargetAddr netsim.Addr
	// Ingress and Egress are the deployment's gateway pair.
	Ingress GatewaySpec
	Egress  GatewaySpec
	// Chain is the ordered middle-box list.
	Chain []sdn.MBSpec
}

// MBInfo registers a middle-box VM with the plane so relay-originated
// onward dials resume the chain walk at the right station.
type MBInfo struct {
	// Name is the station name (must match the chain's MBSpec.Name).
	Name string
	// Host is the physical host of the middle-box VM.
	Host string
	// InstanceIP is the MB's address in the tenant network space.
	InstanceIP string
}

// attachLock serializes atomic attachments on one compute host. refs counts
// in-flight attachments so the registry entry can be pruned when the last
// one releases — host churn cannot grow the map without bound.
type attachLock struct {
	mu   sync.Mutex
	refs int
}

// Plane is the StorM forwarding plane.
type Plane struct {
	fabric *netsim.Fabric
	ctrl   *sdn.Controller

	mu          sync.RWMutex
	hostNAT     map[string]*nat.Table
	deployments map[string]*Deployment // by ID
	byIngressIP map[string]*Deployment
	byEgressIP  map[string]*Deployment
	mbs         map[string]*MBInfo // by endpoint (station) name
	protected   map[string]bool    // instance-net IPs tenants may not dial
	attrib      *Attributions

	attachMu    sync.Mutex
	attachLocks map[string]*attachLock // by VM host, pruned at zero refs
}

// NewPlane creates the plane and installs it as the fabric's forwarding
// plane.
func NewPlane(fabric *netsim.Fabric, ctrl *sdn.Controller) *Plane {
	p := &Plane{
		fabric:      fabric,
		ctrl:        ctrl,
		hostNAT:     make(map[string]*nat.Table),
		attachLocks: make(map[string]*attachLock),
		deployments: make(map[string]*Deployment),
		byIngressIP: make(map[string]*Deployment),
		byEgressIP:  make(map[string]*Deployment),
		mbs:         make(map[string]*MBInfo),
		protected:   make(map[string]bool),
		attrib:      NewAttributions(),
	}
	fabric.SetRoute(p.Route)
	return p
}

// Attributions returns the connection attribution table.
func (p *Plane) Attributions() *Attributions { return p.attrib }

// HostNAT returns (creating on demand) the NAT table of a compute host.
func (p *Plane) HostNAT(host string) *nat.Table {
	p.mu.RLock()
	tbl := p.hostNAT[host]
	p.mu.RUnlock()
	if tbl != nil {
		return tbl
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if tbl = p.hostNAT[host]; tbl == nil {
		tbl = nat.NewTable()
		p.hostNAT[host] = tbl
	}
	return tbl
}

// RegisterMB registers a middle-box VM and protects its address from
// direct tenant access.
func (p *Plane) RegisterMB(info MBInfo) error {
	if info.Name == "" || info.Host == "" {
		return fmt.Errorf("splice: middle-box registration needs name and host")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.mbs[info.Name]; ok {
		return fmt.Errorf("splice: middle-box %q already registered", info.Name)
	}
	cp := info
	p.mbs[info.Name] = &cp
	if info.InstanceIP != "" {
		p.protected[info.InstanceIP] = true
	}
	return nil
}

// UnregisterMB removes a middle-box registration and releases its protected
// address — the scale-down teardown counterpart of RegisterMB. Unknown names
// are a no-op. Established connections through the instance keep flowing
// (routes resolve at dial time); the orchestrator only calls this once the
// instance has drained.
func (p *Plane) UnregisterMB(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	info, ok := p.mbs[name]
	if !ok {
		return
	}
	delete(p.mbs, name)
	if info.InstanceIP != "" {
		delete(p.protected, info.InstanceIP)
	}
}

// Deploy installs a deployment: the gateway pair joins the protected set
// and the chain's flow rules are pushed to the virtual switches.
func (p *Plane) Deploy(d *Deployment) error {
	if d.ID == "" || d.VMHost == "" {
		return fmt.Errorf("splice: deployment needs ID and VM host")
	}
	if d.Ingress.Host == "" || d.Ingress.InstanceIP == "" || d.Egress.Host == "" || d.Egress.InstanceIP == "" {
		return fmt.Errorf("splice: deployment %q needs fully-specified gateways", d.ID)
	}
	if d.TargetAddr.IsZero() {
		return fmt.Errorf("splice: deployment %q missing target address", d.ID)
	}
	ch := &sdn.Chain{
		ID:          d.ID,
		Selector:    vswitch.Match{DstIP: d.Egress.InstanceIP, DstPort: iscsiPort},
		IngressHost: d.Ingress.Host,
		MBs:         d.Chain,
	}
	if err := p.ctrl.InstallChain(ch); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.deployments[d.ID]; ok {
		p.ctrl.RemoveChain(d.ID)
		return fmt.Errorf("splice: deployment %q already exists", d.ID)
	}
	if other, ok := p.byIngressIP[d.Ingress.InstanceIP]; ok {
		p.ctrl.RemoveChain(d.ID)
		return fmt.Errorf("splice: ingress IP %s already used by deployment %q", d.Ingress.InstanceIP, other.ID)
	}
	if other, ok := p.byEgressIP[d.Egress.InstanceIP]; ok {
		p.ctrl.RemoveChain(d.ID)
		return fmt.Errorf("splice: egress IP %s already used by deployment %q", d.Egress.InstanceIP, other.ID)
	}
	cp := *d
	cp.Chain = append([]sdn.MBSpec(nil), d.Chain...)
	p.deployments[d.ID] = &cp
	p.byIngressIP[d.Ingress.InstanceIP] = &cp
	p.byEgressIP[d.Egress.InstanceIP] = &cp
	p.protected[d.Ingress.InstanceIP] = true
	p.protected[d.Egress.InstanceIP] = true
	return nil
}

// Undeploy removes the deployment and its chain rules. Established
// connections keep flowing (routes are resolved at dial time).
func (p *Plane) Undeploy(id string) {
	p.mu.Lock()
	d, ok := p.deployments[id]
	if ok {
		delete(p.deployments, id)
		delete(p.byIngressIP, d.Ingress.InstanceIP)
		delete(p.byEgressIP, d.Egress.InstanceIP)
		delete(p.protected, d.Ingress.InstanceIP)
		delete(p.protected, d.Egress.InstanceIP)
	}
	p.mu.Unlock()
	if ok {
		p.ctrl.RemoveChain(id)
	}
}

// Deployment returns a copy of the named deployment, or nil.
func (p *Plane) Deployment(id string) *Deployment {
	p.mu.RLock()
	defer p.mu.RUnlock()
	d, ok := p.deployments[id]
	if !ok {
		return nil
	}
	cp := *d
	cp.Chain = append([]sdn.MBSpec(nil), d.Chain...)
	return &cp
}

// UpdateChain replaces a live deployment's middle-box chain (on-demand
// scaling). New connections follow the new chain immediately.
func (p *Plane) UpdateChain(id string, mbs []sdn.MBSpec) error {
	p.mu.Lock()
	d, ok := p.deployments[id]
	if ok {
		d.Chain = append([]sdn.MBSpec(nil), mbs...)
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("splice: unknown deployment %q", id)
	}
	return p.ctrl.UpdateChain(id, mbs)
}

// AtomicAttach runs attach() with the deployment's capture rule installed
// on the VM's compute host, holding the host's attachment mutex so that
// concurrent attachments of other volumes are never mis-captured — the
// paper's atomic attachment operation for the 3-tuple ambiguity.
func (p *Plane) AtomicAttach(d *Deployment, attach func() error) error {
	p.attachMu.Lock()
	lock := p.attachLocks[d.VMHost]
	if lock == nil {
		lock = &attachLock{}
		p.attachLocks[d.VMHost] = lock
	}
	lock.refs++
	p.attachMu.Unlock()
	defer func() {
		p.attachMu.Lock()
		lock.refs--
		if lock.refs == 0 {
			delete(p.attachLocks, d.VMHost)
		}
		p.attachMu.Unlock()
	}()

	lock.mu.Lock()
	defer lock.mu.Unlock()

	tbl := p.HostNAT(d.VMHost)
	rule := &nat.Rule{
		ID:       "attach/" + d.ID,
		Priority: 100,
		Match: nat.Match{
			Net:     netsim.StorageNet,
			DstIP:   d.TargetAddr.IP,
			DstPort: d.TargetAddr.Port,
		},
		Action: nat.Redirect(d.Ingress.InstanceIP, iscsiPort),
	}
	if err := tbl.Add(rule); err != nil {
		return fmt.Errorf("splice: install capture rule: %w", err)
	}
	defer tbl.Remove(rule.ID)
	return attach()
}

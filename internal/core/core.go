// Package core implements the StorM platform itself (Figure 2): it accepts
// tenant policies, provisions middle-box VMs with the requested service
// logic, creates the per-volume storage gateway pairs, installs SDN
// forwarding chains, generates initial file-system views for semantic
// services, and connects volumes to their VMs with middle-box services
// enabled — dividing service creation between tenant (the policy and
// service logic) and provider (all infrastructural support).
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/cloud"
	"repro/internal/extfs"
	"repro/internal/initiator"
	"repro/internal/middlebox"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scrub"
	"repro/internal/sdn"
	"repro/internal/services/crypt"
	"repro/internal/services/monitor"
	"repro/internal/services/replica"
	"repro/internal/services/replicate"
	"repro/internal/splice"
	"repro/internal/volume"
	"repro/internal/vswitch"
)

// AttachedVolume is one volume connected through its middle-box chain.
type AttachedVolume struct {
	VolumeID     string
	VM           string
	DeploymentID string
	// Device is the VM-side block device (I/O flows through the chain).
	Device *initiator.Device

	// gwIngressIP/gwEgressIP are the deployment's allocated gateway
	// addresses, returned to the platform's free list on teardown.
	gwIngressIP string
	gwEgressIP  string
}

// MBInstance is one member of a scalable middle-box instance group.
type MBInstance struct {
	// Name is the station name, "<tenant>-<mb>-<seq>".
	Name string
	// Host is the compute host placing the instance.
	Host string
	// MB is the provisioned relay VM; nil for forward-type instances,
	// which are pure routing hops.
	MB *cloud.MiddleBox
}

// TenantDeployment is the realized state of one applied policy.
type TenantDeployment struct {
	Tenant string
	// MBs maps fixed (non-scalable) middle-box names to their VMs.
	MBs map[string]*cloud.MiddleBox
	// Groups maps scalable middle-box names to their current instance
	// groups in steering order.
	Groups map[string][]*MBInstance
	// Monitors exposes the monitoring engine per monitor middle-box (the
	// tenant's log/alert retrieval interface).
	Monitors map[string]*monitor.Monitor
	// Dispatchers exposes the live replica dispatcher per replication
	// middle-box (populated when the volume session is established).
	Dispatchers map[string]*replica.Dispatcher
	// ReplicaVolumes lists the backup volumes created per replication
	// middle-box (for failure injection in experiments).
	ReplicaVolumes map[string][]*volume.Volume
	// Replicators exposes the live content-addressed replication box per
	// replicate middle-box (populated when the volume session is
	// established).
	Replicators map[string]*replicate.Box
	// Scrubbers exposes the background integrity scrubber per replicate
	// middle-box (nil when the policy disables scrubbing).
	Scrubbers map[string]*scrub.Scrubber
	// BackendVolumes lists the content-addressed backend volumes created
	// per replicate middle-box. They outlive any single box instance: a
	// crash-replacement reattaches the same volumes, so the replica sets
	// (and their dedup state) survive the instance.
	BackendVolumes map[string][]*volume.Volume
	// Volumes holds the attached volumes keyed "vm/volumeID".
	Volumes map[string]*AttachedVolume

	platform *Platform
	pol      *policy.Policy

	mu       sync.Mutex
	groupSeq map[string]int // next instance index per group (never reused)
	// pendingRecovery holds, per middle-box group, the tails of crash
	// recoveries that still owe work: the crashed member is replaced, but
	// journal replay or volume re-attachment failed transiently and must be
	// re-driven until it succeeds — otherwise acknowledged journaled writes
	// would be silently stranded on disk.
	pendingRecovery map[string][]*recoveryTail

	// scaleMu serializes Scale / BeginDrain / FinishDrain per deployment.
	scaleMu sync.Mutex
}

// recoveryTail is the remainder of a crash recovery that must eventually
// succeed: reinstalling the steering chains, replaying the crashed
// instance's durable journals, and re-attaching the group's volumes.
type recoveryTail struct {
	inst string // crashed instance, owner of the journal directory
	repl string // replacement instance name
	dir  string // durable journal dir ("" when the spec keeps none)
}

// setDispatcher records a replication middle-box's live dispatcher.
func (t *TenantDeployment) setDispatcher(mb string, d *replica.Dispatcher) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Dispatchers[mb] = d
}

// Dispatcher returns the live dispatcher of a replication middle-box.
func (t *TenantDeployment) Dispatcher(mb string) *replica.Dispatcher {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Dispatchers[mb]
}

// setReplicator records a replicate middle-box's live box.
func (t *TenantDeployment) setReplicator(mb string, b *replicate.Box) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Replicators[mb] = b
}

// Replicator returns the live box of a replicate middle-box.
func (t *TenantDeployment) Replicator(mb string) *replicate.Box {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Replicators[mb]
}

// setScrubber records a replicate middle-box's scrubber, stopping the
// predecessor (a crash-replaced instance's scrubber would otherwise keep
// scanning dead targets forever).
func (t *TenantDeployment) setScrubber(mb string, s *scrub.Scrubber) {
	t.mu.Lock()
	old := t.Scrubbers[mb]
	t.Scrubbers[mb] = s
	t.mu.Unlock()
	if old != nil {
		old.Stop()
	}
}

// tenantShards stripes the platform's tenant registry so Apply/Teardown of
// different tenants never serialize on one mutex.
const tenantShards = 32

// tenantShard is one stripe of the tenant registry.
type tenantShard struct {
	mu      sync.Mutex
	tenants map[string]*TenantDeployment
	pending map[string]bool // tenants with an Apply in flight
}

// Platform is the StorM control plane. Its hot maps are sharded per tenant
// and the gateway address space is a free-list allocator, so concurrent
// Apply/Teardown across tenants share no global critical section beyond
// O(1) allocator pops.
type Platform struct {
	cloud *cloud.Cloud

	shards [tenantShards]tenantShard
	gwIPs  *gwAllocator

	// stateDir roots the durable per-instance journal directories
	// (<stateDir>/<instance name>). Empty disables durable journaling even
	// for policies that request it.
	stateMu  sync.RWMutex
	stateDir string
}

// New builds a platform over the cloud.
func New(c *cloud.Cloud) *Platform {
	p := &Platform{cloud: c, gwIPs: newGWAllocator()}
	for i := range p.shards {
		p.shards[i].tenants = make(map[string]*TenantDeployment)
		p.shards[i].pending = make(map[string]bool)
	}
	return p
}

// shard returns the stripe owning a tenant name (FNV-1a).
func (p *Platform) shard(tenant string) *tenantShard {
	h := uint32(2166136261)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint32(tenant[i])) * 16777619
	}
	return &p.shards[h%tenantShards]
}

// SetStateDir points the platform at the directory holding durable
// middle-box journals. Policies with the "durableJournal" param refuse to
// deploy until this is set: a WAL with nowhere durable to live would
// silently void the crash contract.
func (p *Platform) SetStateDir(dir string) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	p.stateDir = dir
}

// StateDir returns the durable-journal root ("" when unset).
func (p *Platform) StateDir() string {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	return p.stateDir
}

// journalDir returns the durable journal directory for an instance name
// ("" when the spec does not request one).
func (p *Platform) journalDir(spec *policy.MiddleBoxSpec, name string) (string, error) {
	if !spec.DurableJournal() {
		return "", nil
	}
	root := p.StateDir()
	if root == "" {
		return "", fmt.Errorf("core: middle-box %q requests durableJournal but the platform has no state dir (SetStateDir)", spec.Name)
	}
	return filepath.Join(root, name), nil
}

// Apply deploys a tenant policy: provision middle-boxes, install chains,
// and attach every bound volume through its chain.
func (p *Platform) Apply(pol *policy.Policy) (*TenantDeployment, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	// Reserve the tenant name before provisioning anything, so a duplicate
	// Apply racing this one fails immediately instead of both provisioning
	// and the loser leaking its resources.
	sh := p.shard(pol.Tenant)
	sh.mu.Lock()
	if _, ok := sh.tenants[pol.Tenant]; ok || sh.pending[pol.Tenant] {
		sh.mu.Unlock()
		return nil, fmt.Errorf("core: tenant %q already has a deployment", pol.Tenant)
	}
	sh.pending[pol.Tenant] = true
	sh.mu.Unlock()

	dep := &TenantDeployment{
		Tenant:          pol.Tenant,
		MBs:             make(map[string]*cloud.MiddleBox),
		Groups:          make(map[string][]*MBInstance),
		Monitors:        make(map[string]*monitor.Monitor),
		Dispatchers:     make(map[string]*replica.Dispatcher),
		ReplicaVolumes:  make(map[string][]*volume.Volume),
		Replicators:     make(map[string]*replicate.Box),
		Scrubbers:       make(map[string]*scrub.Scrubber),
		BackendVolumes:  make(map[string][]*volume.Volume),
		Volumes:         make(map[string]*AttachedVolume),
		platform:        p,
		pol:             pol,
		groupSeq:        make(map[string]int),
		pendingRecovery: make(map[string][]*recoveryTail),
	}
	committed := false
	defer func() {
		if !committed {
			p.cleanupPartial(dep)
		}
		sh.mu.Lock()
		delete(sh.pending, pol.Tenant)
		sh.mu.Unlock()
	}()

	// Provision middle-boxes. Grouped boxes (scalable ones, plus replicate,
	// which is pinned at one member but grouped for crash-replacement)
	// become instance groups seeded at their minimum size; fixed
	// forward-type boxes need no relay VM (they are pure routing hops
	// resolved at chain build time).
	specs := make(map[string]*policy.MiddleBoxSpec)
	for i := range pol.MiddleBoxes {
		spec := &pol.MiddleBoxes[i]
		specs[spec.Name] = spec
		if spec.Grouped() {
			if err := p.provisionGroupInstances(pol, spec, dep, spec.EffectiveMinInstances()); err != nil {
				return nil, err
			}
			continue
		}
		if spec.Type == policy.TypeForward {
			continue
		}
		mb, err := p.provisionMB(pol, spec, dep, pol.Tenant+"-"+spec.Name, spec.Host)
		if err != nil {
			return nil, err
		}
		dep.MBs[spec.Name] = mb
	}

	// Wire each volume through its chain and attach it.
	for _, vb := range pol.Volumes {
		av, err := p.attachBinding(pol.Tenant, vb, specs, dep)
		if err != nil {
			return nil, err
		}
		dep.Volumes[vb.VM+"/"+vb.Volume] = av
	}

	sh.mu.Lock()
	sh.tenants[pol.Tenant] = dep
	sh.mu.Unlock()
	committed = true
	return dep, nil
}

// cleanupPartial unwinds whatever a failed Apply managed to provision.
func (p *Platform) cleanupPartial(dep *TenantDeployment) {
	for _, s := range dep.Scrubbers {
		if s != nil {
			s.Stop()
		}
	}
	for _, av := range dep.Volumes {
		_ = av.Device.Close()
		p.cloud.Plane.Undeploy(av.DeploymentID)
		_ = p.cloud.Volumes.MarkDetached(av.VolumeID)
		p.gwIPs.Release(av.gwIngressIP)
		p.gwIPs.Release(av.gwEgressIP)
	}
	for _, insts := range dep.Groups {
		for _, in := range insts {
			if in.MB != nil {
				_ = p.cloud.RemoveMiddleBox(in.Name)
			}
			obs.Default().RetireInstance(in.Name)
		}
	}
	for _, mb := range dep.MBs {
		_ = p.cloud.RemoveMiddleBox(mb.Name)
		obs.Default().RetireInstance(mb.Name)
	}
	for _, bvs := range dep.BackendVolumes {
		for _, bv := range bvs {
			_ = p.cloud.Volumes.MarkDetached(bv.ID)
		}
	}
}

// provisionGroupInstances launches count new members of a scalable
// middle-box group, spread over the least-loaded hosts, and appends them to
// the deployment's group state. Instance indices are never reused so a
// re-grown group cannot collide with a draining predecessor's station name.
func (p *Platform) provisionGroupInstances(pol *policy.Policy, spec *policy.MiddleBoxSpec, dep *TenantDeployment, count int) error {
	hosts := p.cloud.PlaceHosts(count)
	for i := 0; i < count; i++ {
		dep.mu.Lock()
		idx := dep.groupSeq[spec.Name]
		dep.groupSeq[spec.Name] = idx + 1
		dep.mu.Unlock()
		name := fmt.Sprintf("%s-%s-%d", pol.Tenant, spec.Name, idx)
		host := spec.Host
		if host == "" {
			host = hosts[i]
		}
		in := &MBInstance{Name: name, Host: host}
		if spec.Type != policy.TypeForward {
			mb, err := p.provisionMB(pol, spec, dep, name, host)
			if err != nil {
				return err
			}
			in.MB = mb
		}
		dep.mu.Lock()
		dep.Groups[spec.Name] = append(dep.Groups[spec.Name], in)
		dep.mu.Unlock()
	}
	return nil
}

// relayCost maps a spec's sizing knobs onto the relay cost model: the
// calibrated defaults with the policy's copy-thread bound and interception
// overrides.
func relayCost(spec *policy.MiddleBoxSpec) middlebox.CostModel {
	cm := middlebox.DefaultCostModel()
	cm.CopyThreads = spec.CopyThreads()
	if d, ok := spec.InterceptPerBatch(); ok {
		cm.ActivePerBatch = d
	}
	if n, ok := spec.InterceptBatchBytes(); ok {
		cm.BatchSize = n
	}
	return cm
}

// provisionMB launches one service middle-box VM under the given station
// name and placement.
func (p *Platform) provisionMB(pol *policy.Policy, spec *policy.MiddleBoxSpec, dep *TenantDeployment, name, host string) (*cloud.MiddleBox, error) {
	mode := middlebox.Active
	if spec.EffectiveMode() == policy.ModePassive {
		mode = middlebox.Passive
	}
	build := func(mb *cloud.MiddleBox) ([]middlebox.ServiceFactory, error) {
		switch spec.Type {
		case policy.TypeMonitor:
			mon, err := p.buildMonitor(pol, spec, dep)
			if err != nil {
				return nil, err
			}
			dep.Monitors[spec.Name] = mon
			return []middlebox.ServiceFactory{mon.Service()}, nil
		case policy.TypeEncryption:
			key, err := spec.Key()
			if err != nil {
				return nil, err
			}
			cpu := p.cloud.HostCPU(mb.Host)
			cost := crypt.DefaultCostModel(cpu)
			if d, ok := spec.CipherCostPerKiB(); ok {
				cost.PerKiB = d
			}
			return []middlebox.ServiceFactory{crypt.Service(key, cost)}, nil
		case policy.TypeReplication:
			return p.buildReplication(pol, spec, mb, dep)
		case policy.TypeReplicate:
			return p.buildReplicate(pol, spec, mb, dep)
		default:
			return nil, fmt.Errorf("core: middle-box %q: unsupported type %q", spec.Name, spec.Type)
		}
	}
	jdir, err := p.journalDir(spec, name)
	if err != nil {
		return nil, err
	}
	return p.cloud.LaunchMiddleBox(cloud.MBSpec{
		Name:          name,
		Host:          host,
		Mode:          mode,
		BuildServices: build,
		Cost:          relayCost(spec),
		JournalDir:    jdir,
		ForwardConns:  spec.ForwardConns(),
	})
}

// buildMonitor creates the monitoring engine with the initial system view
// of the (single) volume chained through this monitor.
func (p *Platform) buildMonitor(pol *policy.Policy, spec *policy.MiddleBoxSpec, dep *TenantDeployment) (*monitor.Monitor, error) {
	volID := ""
	for _, vb := range pol.Volumes {
		for _, name := range vb.Chain {
			if name == spec.Name {
				volID = vb.Volume
			}
		}
	}
	if volID == "" {
		return nil, fmt.Errorf("core: monitor %q is chained by no volume", spec.Name)
	}
	vol, err := p.cloud.Volumes.Get(volID)
	if err != nil {
		return nil, err
	}
	view, err := p.DumpView(vol)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(view)
	for _, prefix := range spec.WatchPrefixes() {
		mon.Watch(prefix)
	}
	return mon, nil
}

// DumpView generates the initial high-level system view of a volume: the
// platform-side dumpe2fs pass run when the device is attached. An
// unformatted volume yields a raw (geometry-only) view.
func (p *Platform) DumpView(vol *volume.Volume) (*extfs.View, error) {
	fs, err := extfs.Mount(vol.Device())
	if err == extfs.ErrNotFormatted {
		return &extfs.View{
			BlockSize:       4096,
			SectorsPerBlock: 4096 / vol.Device().BlockSize(),
			BlocksCount:     vol.SizeBytes / 4096,
		}, nil
	}
	if err != nil {
		return nil, err
	}
	return fs.Dump()
}

// buildReplication provisions the backup volumes, attaches them to the
// middle-box over the storage network, and returns the dispatcher factory.
func (p *Platform) buildReplication(pol *policy.Policy, spec *policy.MiddleBoxSpec, mb *cloud.MiddleBox, dep *TenantDeployment) ([]middlebox.ServiceFactory, error) {
	// The primary volume is the one chained through this middle-box; the
	// backups match its size.
	var primary *volume.Volume
	for _, vb := range pol.Volumes {
		for _, name := range vb.Chain {
			if name == spec.Name {
				vol, err := p.cloud.Volumes.Get(vb.Volume)
				if err != nil {
					return nil, err
				}
				primary = vol
			}
		}
	}
	if primary == nil {
		return nil, fmt.Errorf("core: replication %q is chained by no volume", spec.Name)
	}
	nExtra := spec.Replicas() - 1
	var extras []replica.NamedDevice
	for i := 0; i < nExtra; i++ {
		rv, err := p.cloud.Volumes.Create(fmt.Sprintf("%s-%s-replica%d", pol.Tenant, spec.Name, i+1), primary.SizeBytes)
		if err != nil {
			return nil, err
		}
		dev, err := p.cloud.MBAttachVolume(mb, rv.ID)
		if err != nil {
			return nil, err
		}
		dep.ReplicaVolumes[spec.Name] = append(dep.ReplicaVolumes[spec.Name], rv)
		extras = append(extras, replica.NamedDevice{Name: rv.ID, Dev: dev})
	}
	factory := func(backend blockdev.Device) (blockdev.Device, error) {
		d, err := replica.New(backend, extras...)
		if err != nil {
			return nil, err
		}
		dep.setDispatcher(spec.Name, d)
		return d, nil
	}
	return []middlebox.ServiceFactory{factory}, nil
}

// buildReplicate provisions (or, on crash-replacement, reattaches) the
// content-addressed backend volumes for a replicate middle-box and returns
// the factory that assembles the replication box and its scrubber. The
// backend volumes and the dispatch journal are keyed by the group name, not
// the instance name, so a replacement instance reopens the same replica
// sets and replays the crashed box's uncommitted dispatch queue.
func (p *Platform) buildReplicate(pol *policy.Policy, spec *policy.MiddleBoxSpec, mb *cloud.MiddleBox, dep *TenantDeployment) ([]middlebox.ServiceFactory, error) {
	// The primary volume is the one chained through this middle-box; the
	// backends size to cover its image in chunks. Exactly one volume may
	// chain through: the box's slot table and dispatch journal address a
	// single logical image.
	var primary *volume.Volume
	for _, vb := range pol.Volumes {
		for _, name := range vb.Chain {
			if name == spec.Name {
				if primary != nil {
					return nil, fmt.Errorf("core: replicate %q is chained by more than one volume", spec.Name)
				}
				vol, err := p.cloud.Volumes.Get(vb.Volume)
				if err != nil {
					return nil, err
				}
				primary = vol
			}
		}
	}
	if primary == nil {
		return nil, fmt.Errorf("core: replicate %q is chained by no volume", spec.Name)
	}
	root := p.StateDir()
	if root == "" {
		return nil, fmt.Errorf("core: replicate %q needs a dispatch journal but the platform has no state dir (SetStateDir)", spec.Name)
	}
	walDir := filepath.Join(root, pol.Tenant+"-"+spec.Name+"-dispatch")

	chunk := replicate.DefaultChunkSize
	bs := primary.Device().BlockSize()
	if chunk%bs != 0 {
		return nil, fmt.Errorf("core: replicate %q: chunk size %d is not a multiple of volume block size %d", spec.Name, chunk, bs)
	}
	slots := (primary.SizeBytes + uint64(chunk) - 1) / uint64(chunk)
	need, err := cas.BlockBackendBytes(bs, chunk, slots)
	if err != nil {
		return nil, fmt.Errorf("core: replicate %q: %w", spec.Name, err)
	}

	// Reuse the group's existing backend volumes when this build replaces a
	// crashed instance; otherwise create them. Stale attachment state from
	// the dead box is cleared before reattaching.
	dep.mu.Lock()
	bvs := append([]*volume.Volume(nil), dep.BackendVolumes[spec.Name]...)
	dep.mu.Unlock()
	n := spec.ReplicaBackends()
	if len(bvs) == 0 {
		for i := 0; i < n; i++ {
			bv, err := p.cloud.Volumes.Create(fmt.Sprintf("%s-%s-backend%d", pol.Tenant, spec.Name, i+1), need)
			if err != nil {
				return nil, err
			}
			bvs = append(bvs, bv)
		}
		dep.mu.Lock()
		dep.BackendVolumes[spec.Name] = bvs
		dep.mu.Unlock()
	}
	var backends []replicate.NamedStore
	for _, bv := range bvs {
		_ = p.cloud.Volumes.MarkDetached(bv.ID)
		dev, err := p.cloud.MBAttachVolume(mb, bv.ID)
		if err != nil {
			return nil, err
		}
		be, err := cas.OpenBlockBackend(dev, chunk, slots)
		if err != nil {
			return nil, fmt.Errorf("core: replicate %q: backend %s: %w", spec.Name, bv.ID, err)
		}
		store, err := cas.Open(be, chunk, slots)
		if err != nil {
			return nil, fmt.Errorf("core: replicate %q: backend %s: %w", spec.Name, bv.ID, err)
		}
		backends = append(backends, replicate.NamedStore{Name: bv.ID, Store: store})
	}

	factory := func(backend blockdev.Device) (blockdev.Device, error) {
		// The factory runs once per backend session. On a reconnect the
		// predecessor box must release the dispatch journal before the new
		// box opens (and replays) it; Close after a crash-kill is a no-op,
		// so a replacement instance leaves the frozen journal untouched
		// until its own replay.
		if old := dep.Replicator(spec.Name); old != nil {
			_ = old.Close()
		}
		box, err := replicate.New(replicate.Config{
			Name:   mb.Name,
			Quorum: spec.ReplicaQuorum(),
			WALDir: walDir,
		}, backend, backends)
		if err != nil {
			return nil, err
		}
		dep.setReplicator(spec.Name, box)
		if iv := spec.ScrubInterval(); iv > 0 {
			reps := make([]scrub.Replica, 0, len(box.Targets()))
			for _, t := range box.Targets() {
				reps = append(reps, t)
			}
			sc := scrub.New(scrub.Config{
				Name:      mb.Name,
				Replicas:  reps,
				Slots:     slots,
				ChunkSize: chunk,
				Interval:  iv,
				Paused:    box.BreakerOpen,
			})
			sc.Start()
			dep.setScrubber(spec.Name, sc)
		}
		return box, nil
	}
	return []middlebox.ServiceFactory{factory}, nil
}

// attachBinding deploys the splice path for one volume and attaches it.
func (p *Platform) attachBinding(tenant string, vb policy.VolumeBinding, specs map[string]*policy.MiddleBoxSpec, dep *TenantDeployment) (*AttachedVolume, error) {
	vm, err := p.cloud.VM(vb.VM)
	if err != nil {
		return nil, err
	}
	vol, err := p.cloud.Volumes.Get(vb.Volume)
	if err != nil {
		return nil, err
	}

	chain := p.buildChain(tenant, vb, specs, dep, vm.Host)

	ingressHost := vb.IngressHost
	if ingressHost == "" {
		ingressHost = vm.Host
	}
	egressHost := vb.EgressHost
	if egressHost == "" {
		egressHost = p.pickOtherHost(vm.Host)
	}
	ingressIP, err := p.gwIPs.Alloc()
	if err != nil {
		return nil, fmt.Errorf("core: tenant %q: %w", tenant, err)
	}
	egressIP, err := p.gwIPs.Alloc()
	if err != nil {
		p.gwIPs.Release(ingressIP)
		return nil, fmt.Errorf("core: tenant %q: %w", tenant, err)
	}
	d := &splice.Deployment{
		ID:         fmt.Sprintf("%s/%s/%s", tenant, vb.VM, vb.Volume),
		VM:         vb.VM,
		VMHost:     vm.Host,
		VolumeIQN:  vol.IQN,
		TargetAddr: p.cloud.Volumes.TargetAddr(),
		Ingress:    splice.GatewaySpec{Name: "gw-in", Host: ingressHost, InstanceIP: ingressIP},
		Egress:     splice.GatewaySpec{Name: "gw-out", Host: egressHost, InstanceIP: egressIP},
		Chain:      chain,
	}
	releaseIPs := func() {
		p.gwIPs.Release(ingressIP)
		p.gwIPs.Release(egressIP)
	}
	if err := p.cloud.Plane.Deploy(d); err != nil {
		releaseIPs()
		return nil, err
	}

	if err := p.cloud.Volumes.MarkAttached(vol.ID, vb.VM); err != nil {
		p.cloud.Plane.Undeploy(d.ID)
		releaseIPs()
		return nil, err
	}
	dev, err := p.attachDevice(vm, d, vb.VM, vol.IQN)
	if err != nil {
		_ = p.cloud.Volumes.MarkDetached(vol.ID)
		p.cloud.Plane.Undeploy(d.ID)
		releaseIPs()
		return nil, fmt.Errorf("core: attach %s: %w", d.ID, err)
	}
	p.cloud.Plane.Attributions().RecordAttachment(vb.VM, vol.IQN)
	return &AttachedVolume{
		VolumeID:     vol.ID,
		VM:           vb.VM,
		DeploymentID: d.ID,
		Device:       dev,
		gwIngressIP:  ingressIP,
		gwEgressIP:   egressIP,
	}, nil
}

// attachDevice logs a VM into its volume under the deployment's capture
// rule (AtomicAttach) and opens the block device. The capture rule exists
// only for the duration of the attach, so a reconnect must come back
// through here to be spliced into the chain.
func (p *Platform) attachDevice(vm *cloud.VM, d *splice.Deployment, vmName, iqn string) (*initiator.Device, error) {
	var dev *initiator.Device
	err := p.cloud.Plane.AtomicAttach(d, func() error {
		conn, err := vm.Endpoint.DialAddr(d.TargetAddr)
		if err != nil {
			return err
		}
		sess, err := initiator.Login(conn, initiator.Config{
			InitiatorIQN: "iqn.2016-04.edu.purdue.storm:init:" + vmName,
			TargetIQN:    iqn,
			AttachedVM:   vmName,
			Obs:          obs.Default(),
		})
		if err != nil {
			_ = conn.Close()
			return err
		}
		dev, err = initiator.OpenDevice(sess)
		if err != nil {
			_ = sess.Close()
		}
		return err
	})
	return dev, err
}

// Reattach re-runs the atomic attachment for a binding whose VM-side
// device was closed (a VM reconnect). The new flow dials under a fresh
// capture rule and is hashed by the steering group onto its current
// non-draining members, so reconnects naturally migrate off a draining
// instance. The binding's Device handle is replaced.
func (t *TenantDeployment) Reattach(key string) error {
	av, ok := t.Volumes[key]
	if !ok {
		return fmt.Errorf("core: tenant %q has no attached volume %q", t.Tenant, key)
	}
	vm, err := t.platform.cloud.VM(av.VM)
	if err != nil {
		return err
	}
	vol, err := t.platform.cloud.Volumes.Get(av.VolumeID)
	if err != nil {
		return err
	}
	d := t.platform.cloud.Plane.Deployment(av.DeploymentID)
	if d == nil {
		return fmt.Errorf("core: deployment %q is gone", av.DeploymentID)
	}
	dev, err := t.platform.attachDevice(vm, d, av.VM, vol.IQN)
	if err != nil {
		return fmt.Errorf("core: reattach %s: %w", av.DeploymentID, err)
	}
	av.Device = dev
	return nil
}

// buildChain renders a volume binding's middle-box list into SDN chain
// specs from the deployment's current state: fixed boxes become single
// stations, scalable boxes become select groups over their live instances.
func (p *Platform) buildChain(tenant string, vb policy.VolumeBinding, specs map[string]*policy.MiddleBoxSpec, dep *TenantDeployment, vmHost string) []sdn.MBSpec {
	var chain []sdn.MBSpec
	for _, name := range vb.Chain {
		spec := specs[name]
		if spec.Grouped() {
			mode := vswitch.ModeTerminate
			if spec.Type == policy.TypeForward {
				mode = vswitch.ModeForward
			}
			dep.mu.Lock()
			insts := append([]*MBInstance(nil), dep.Groups[name]...)
			dep.mu.Unlock()
			members := make([]sdn.Instance, len(insts))
			for i, in := range insts {
				members[i] = sdn.Instance{Name: in.Name, Host: in.Host}
				if in.MB != nil {
					members[i].RelayAddr = in.MB.RelayAddr
				}
			}
			chain = append(chain, sdn.MBSpec{
				Name: tenant + "-" + name, Mode: mode, Instances: members,
			})
			continue
		}
		if spec.Type == policy.TypeForward {
			host := spec.Host
			if host == "" {
				host = p.pickOtherHost(vmHost)
			}
			chain = append(chain, sdn.MBSpec{
				Name: tenant + "-" + name, Host: host, Mode: vswitch.ModeForward,
			})
			continue
		}
		mb := dep.MBs[name]
		chain = append(chain, sdn.MBSpec{
			Name: mb.Name, Host: mb.Host, Mode: vswitch.ModeTerminate, RelayAddr: mb.RelayAddr,
		})
	}
	return chain
}

// pickOtherHost returns a compute host different from avoid when possible.
func (p *Platform) pickOtherHost(avoid string) string {
	hosts := p.cloud.ComputeHosts()
	for _, h := range hosts {
		if h != avoid {
			return h
		}
	}
	return hosts[0]
}

// Teardown removes a tenant's deployment: volumes detach, chains and
// middle-boxes are destroyed.
func (p *Platform) Teardown(tenant string) error {
	sh := p.shard(tenant)
	sh.mu.Lock()
	dep, ok := sh.tenants[tenant]
	if ok {
		delete(sh.tenants, tenant)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: tenant %q has no deployment", tenant)
	}
	// Serialize against in-flight scale operations on this deployment.
	dep.scaleMu.Lock()
	defer dep.scaleMu.Unlock()
	// Background scrubbers first, so they are not scanning targets whose
	// relays are being torn down underneath them.
	dep.mu.Lock()
	scrubbers := make([]*scrub.Scrubber, 0, len(dep.Scrubbers))
	for _, s := range dep.Scrubbers {
		if s != nil {
			scrubbers = append(scrubbers, s)
		}
	}
	dep.mu.Unlock()
	for _, s := range scrubbers {
		s.Stop()
	}
	for _, av := range dep.Volumes {
		_ = av.Device.Close()
		p.cloud.Plane.Undeploy(av.DeploymentID)
		_ = p.cloud.Volumes.MarkDetached(av.VolumeID)
		p.gwIPs.Release(av.gwIngressIP)
		p.gwIPs.Release(av.gwEgressIP)
	}
	dep.mu.Lock()
	var groupInsts []*MBInstance
	for _, insts := range dep.Groups {
		groupInsts = append(groupInsts, insts...)
	}
	dep.mu.Unlock()
	for _, in := range groupInsts {
		if in.MB != nil {
			_ = p.cloud.RemoveMiddleBox(in.Name)
		}
		obs.Default().RetireInstance(in.Name)
	}
	for _, mb := range dep.MBs {
		_ = p.cloud.RemoveMiddleBox(mb.Name)
		obs.Default().RetireInstance(mb.Name)
	}
	for _, bvs := range dep.BackendVolumes {
		for _, bv := range bvs {
			_ = p.cloud.Volumes.MarkDetached(bv.ID)
		}
	}
	return nil
}

// Deployment returns a tenant's live deployment.
func (p *Platform) Deployment(tenant string) (*TenantDeployment, bool) {
	sh := p.shard(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	dep, ok := sh.tenants[tenant]
	return dep, ok
}

// UpdateChain mutates a live volume's middle-box chain by deployment ID —
// the on-demand scaling interface.
func (p *Platform) UpdateChain(deploymentID string, chain []sdn.MBSpec) error {
	return p.cloud.Plane.UpdateChain(deploymentID, chain)
}

// spec returns the deployment's policy spec for a middle-box name.
func (t *TenantDeployment) spec(mb string) *policy.MiddleBoxSpec {
	for i := range t.pol.MiddleBoxes {
		if t.pol.MiddleBoxes[i].Name == mb {
			return &t.pol.MiddleBoxes[i]
		}
	}
	return nil
}

// ScaleBounds returns a scalable middle-box's configured instance bounds.
func (t *TenantDeployment) ScaleBounds(mb string) (min, max int, err error) {
	spec := t.spec(mb)
	if spec == nil {
		return 0, 0, fmt.Errorf("core: tenant %q has no middle-box %q", t.Tenant, mb)
	}
	if !spec.Grouped() {
		return 0, 0, fmt.Errorf("core: middle-box %q is not scalable", mb)
	}
	if !spec.Scalable() {
		// A replicate group is pinned at a single member: the group exists
		// for crash-replacement coverage, not elasticity.
		return 1, 1, nil
	}
	return spec.EffectiveMinInstances(), spec.EffectiveMaxInstances(), nil
}

// Group returns a snapshot of a scalable middle-box's current instances.
func (t *TenantDeployment) Group(mb string) []*MBInstance {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*MBInstance(nil), t.Groups[mb]...)
}

// instance finds a group member by station name.
func (t *TenantDeployment) instance(mb, inst string) *MBInstance {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, in := range t.Groups[mb] {
		if in.Name == inst {
			return in
		}
	}
	return nil
}

// steeringGroup returns the vswitch select group steering flows across the
// middle-box's instances (nil before any chain is installed).
func (t *TenantDeployment) steeringGroup(mb string) *vswitch.Group {
	return t.platform.cloud.Controller.Group(t.Tenant + "-" + mb)
}

// reinstallChains pushes the middle-box's current group membership to every
// deployed chain steering through it.
func (t *TenantDeployment) reinstallChains(mbName string) error {
	specs := make(map[string]*policy.MiddleBoxSpec, len(t.pol.MiddleBoxes))
	for i := range t.pol.MiddleBoxes {
		specs[t.pol.MiddleBoxes[i].Name] = &t.pol.MiddleBoxes[i]
	}
	for _, vb := range t.pol.Volumes {
		uses := false
		for _, n := range vb.Chain {
			if n == mbName {
				uses = true
			}
		}
		if !uses {
			continue
		}
		vmHost := ""
		if vm, err := t.platform.cloud.VM(vb.VM); err == nil {
			vmHost = vm.Host
		}
		chain := t.platform.buildChain(t.Tenant, vb, specs, t, vmHost)
		id := fmt.Sprintf("%s/%s/%s", t.Tenant, vb.VM, vb.Volume)
		if err := t.platform.UpdateChain(id, chain); err != nil {
			return err
		}
	}
	return nil
}

// Scale grows a scalable middle-box group to n instances and installs the
// updated steering rules; established flows keep their serving instance.
// Scaling down must go through BeginDrain/FinishDrain so in-flight sessions
// and journaled writes survive.
func (t *TenantDeployment) Scale(mbName string, n int) error {
	t.scaleMu.Lock()
	defer t.scaleMu.Unlock()
	spec := t.spec(mbName)
	if spec == nil {
		return fmt.Errorf("core: tenant %q has no middle-box %q", t.Tenant, mbName)
	}
	if !spec.Scalable() {
		return fmt.Errorf("core: middle-box %q is not scalable (maxInstances %d)", mbName, spec.EffectiveMaxInstances())
	}
	cur := len(t.Group(mbName))
	switch {
	case n < 1 || n > spec.EffectiveMaxInstances():
		return fmt.Errorf("core: middle-box %q: target size %d outside [1,%d]", mbName, n, spec.EffectiveMaxInstances())
	case n < cur:
		return fmt.Errorf("core: middle-box %q: scale-down from %d to %d must drain (BeginDrain/FinishDrain)", mbName, cur, n)
	case n == cur:
		return nil
	}
	if err := t.platform.provisionGroupInstances(t.pol, spec, t, n-cur); err != nil {
		return err
	}
	return t.reinstallChains(mbName)
}

// BeginDrain starts winding an instance down: the steering group stops
// hashing new flows to it, and its relay refuses new sessions, so the
// member quiesces as established sessions log out.
func (t *TenantDeployment) BeginDrain(mbName, inst string) error {
	t.scaleMu.Lock()
	defer t.scaleMu.Unlock()
	in := t.instance(mbName, inst)
	if in == nil {
		return fmt.Errorf("core: middle-box %q has no instance %q", mbName, inst)
	}
	// Steering first: reconnects of flows bound here rebind elsewhere.
	if g := t.steeringGroup(mbName); g != nil {
		g.SetDraining(inst, true)
	}
	if in.MB != nil {
		in.MB.Relay.Drain()
	}
	return nil
}

// DrainStatus reports an instance's wind-down progress. Forward instances
// hold no sessions or journal, so they quiesce the moment steering stops.
func (t *TenantDeployment) DrainStatus(mbName, inst string) (middlebox.DrainStatus, error) {
	in := t.instance(mbName, inst)
	if in == nil {
		return middlebox.DrainStatus{}, fmt.Errorf("core: middle-box %q has no instance %q", mbName, inst)
	}
	if in.MB == nil {
		g := t.steeringGroup(mbName)
		return middlebox.DrainStatus{Draining: g != nil && g.Draining(inst)}, nil
	}
	return in.MB.Relay.DrainStatus(), nil
}

// FinishDrain completes a zero-loss scale-down: it verifies the instance
// has fully quiesced (no sessions, empty journal), removes it from the
// steering group, and tears the VM down. It refuses to run on an instance
// still holding sessions or journaled bytes, and never empties a group.
func (t *TenantDeployment) FinishDrain(mbName, inst string) error {
	t.scaleMu.Lock()
	defer t.scaleMu.Unlock()
	in := t.instance(mbName, inst)
	if in == nil {
		return fmt.Errorf("core: middle-box %q has no instance %q", mbName, inst)
	}
	if len(t.Group(mbName)) <= 1 {
		return fmt.Errorf("core: middle-box %q: refusing to drain the last instance", mbName)
	}
	if in.MB != nil {
		if !in.MB.Relay.Quiesced() {
			st := in.MB.Relay.DrainStatus()
			return fmt.Errorf("core: instance %q not quiesced (draining=%v sessions=%d journal=%dB)",
				inst, st.Draining, st.Sessions, st.JournalBytes)
		}
	} else if g := t.steeringGroup(mbName); g == nil || !g.Draining(inst) {
		return fmt.Errorf("core: instance %q is not draining", inst)
	}
	t.mu.Lock()
	insts := t.Groups[mbName]
	for i, e := range insts {
		if e == in {
			t.Groups[mbName] = append(insts[:i:i], insts[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	// Reinstalling the chains shrinks the select group, which also prunes
	// the removed member's flow bindings and drain mark.
	if err := t.reinstallChains(mbName); err != nil {
		return err
	}
	// Retire the departed member's metric series so group churn cannot grow
	// the registry without bound.
	obs.Default().RetireInstance(inst)
	if in.MB != nil {
		return t.platform.cloud.RemoveMiddleBox(in.Name)
	}
	return nil
}

// MemberStatus is one group member's scale/drain snapshot.
type MemberStatus struct {
	Name         string
	Host         string
	Draining     bool
	Crashed      bool
	Sessions     int
	JournalBytes int
	// CopyThreads is the member's concurrent copy bound — the denominator
	// for utilization (0 = unbounded).
	CopyThreads int
	// BreakerOpen surfaces a replicate member's overload state (a backend
	// circuit breaker open); always false for non-replicate groups.
	BreakerOpen bool
}

// RecoverInstance replaces a crashed group member: it verifies the member's
// relay crash-stopped, provisions a replacement on a surviving host under a
// fresh (never reused) instance index, swaps it into the steering group,
// replays the crashed instance's durable journals through the replacement's
// service chain, and re-attaches every volume steered through the group so
// parked flows resume. It returns the replacement instance and how many
// journal records the replay delivered — writes the crashed relay
// acknowledged but never applied to the backing volume.
//
// Recovery is retryable at every failure point: until the replacement is
// provisioned the crashed member stays in the group (still reported Crashed,
// so the orchestrator re-runs RecoverInstance), and once the group has been
// swapped the remaining steps are recorded as a pending-recovery tail that
// RetryRecoveries re-drives until journal replay and re-attachment succeed.
// A transient backend error can therefore never strand acknowledged
// journaled writes on disk.
func (t *TenantDeployment) RecoverInstance(mbName, inst string) (*MBInstance, int, error) {
	t.scaleMu.Lock()
	defer t.scaleMu.Unlock()
	spec := t.spec(mbName)
	if spec == nil {
		return nil, 0, fmt.Errorf("core: tenant %q has no middle-box %q", t.Tenant, mbName)
	}
	in := t.instance(mbName, inst)
	if in == nil {
		return nil, 0, fmt.Errorf("core: middle-box %q has no instance %q", mbName, inst)
	}
	if in.MB == nil {
		return nil, 0, fmt.Errorf("core: instance %q is a forward hop; nothing to recover", inst)
	}
	if !in.MB.Relay.Killed() {
		return nil, 0, fmt.Errorf("core: instance %q has not crashed", inst)
	}
	p := t.platform
	dir, derr := p.journalDir(spec, inst)
	if derr != nil {
		dir = "" // journaling misconfigured (caught at Apply); nothing to replay
	}

	// Provision the replacement before touching the group: if this fails the
	// crashed member is still visible as Crashed and the next reconcile pass
	// retries the whole recovery. The instance index is burned either way so
	// the replacement's station name can never collide with stale steering
	// state.
	t.mu.Lock()
	idx := t.groupSeq[mbName]
	t.groupSeq[mbName] = idx + 1
	t.mu.Unlock()
	name := fmt.Sprintf("%s-%s-%d", t.Tenant, mbName, idx)
	host := spec.Host
	if host == "" {
		host = p.cloud.PlaceHostsAvoiding(1, map[string]bool{in.Host: true})[0]
	}
	mb, err := p.provisionMB(t.pol, spec, t, name, host)
	if err != nil {
		return nil, 0, fmt.Errorf("core: replacement for crashed %q: %w", inst, err)
	}
	repl := &MBInstance{Name: name, Host: host, MB: mb}

	// Swap the group and record the owed tail in the same critical section:
	// from this instant the member no longer reports Crashed, so any failure
	// in the remaining steps must leave a pending-recovery record behind or
	// the journal would never be replayed.
	t.mu.Lock()
	insts := t.Groups[mbName]
	for i, e := range insts {
		if e == in {
			t.Groups[mbName] = append(insts[:i:i], insts[i+1:]...)
			break
		}
	}
	t.Groups[mbName] = append(t.Groups[mbName], repl)
	tail := &recoveryTail{inst: inst, repl: name, dir: dir}
	t.pendingRecovery[mbName] = append(t.pendingRecovery[mbName], tail)
	t.mu.Unlock()

	// The crashed member is out of the group for good; drop its metric
	// series so repeated crash/replace cycles cannot grow the registry.
	obs.Default().RetireInstance(inst)

	replayed, err := t.finishRecovery(mbName, tail)
	if err != nil {
		return repl, replayed, err
	}
	obs.Default().Eventf("core", "tenant %s: crashed %s/%s recovered onto %s (host %s, %d journal records replayed)",
		t.Tenant, mbName, inst, name, host, replayed)
	return repl, replayed, nil
}

// finishRecovery drives a recovery tail to completion: chain reinstall,
// journal replay, volume re-attachment. On success the tail is cleared; on
// error it stays pending for RetryRecoveries. Every step tolerates
// re-execution — reinstallChains rebuilds from current membership, replay
// of an already-consumed journal dir is a no-op, and re-attachment replaces
// the device handle it replaced before. Caller holds t.scaleMu.
func (t *TenantDeployment) finishRecovery(mbName string, tail *recoveryTail) (int, error) {
	// Reinstalling the chains swaps the select-group membership and prunes
	// the dead member's flow bindings, so reconnects hash onto survivors.
	if err := t.reinstallChains(mbName); err != nil {
		return 0, err
	}

	// Replay the crashed instance's durable journals before any client
	// traffic reconnects: recovered writes land first, so a retried
	// in-flight write can never be overwritten by an older journal record.
	// The replacement's relay hosts the replay; if it is already gone
	// (scaled away between retries), any surviving relay member serves.
	replayed := 0
	if tail.dir != "" {
		relay := t.instance(mbName, tail.repl)
		if relay == nil || relay.MB == nil {
			for _, e := range t.Group(mbName) {
				if e.MB != nil {
					relay = e
					break
				}
			}
		}
		if relay == nil || relay.MB == nil {
			return 0, fmt.Errorf("core: no relay instance left in %q to replay %s", mbName, tail.dir)
		}
		n, err := relay.MB.Relay.RecoverFrom(tail.dir)
		if err != nil {
			return n, fmt.Errorf("core: journal replay of crashed %q: %w", tail.inst, err)
		}
		replayed = n
	}

	// Un-park: re-run the atomic attachment for every volume steered
	// through this group. The old VM-side devices died with the relay.
	for _, vb := range t.pol.Volumes {
		uses := false
		for _, n := range vb.Chain {
			if n == mbName {
				uses = true
			}
		}
		if !uses {
			continue
		}
		key := vb.VM + "/" + vb.Volume
		if av, ok := t.Volumes[key]; ok {
			_ = av.Device.Close()
		}
		if err := t.Reattach(key); err != nil {
			return replayed, t.withRefusal(mbName, err)
		}
	}

	t.mu.Lock()
	tails := t.pendingRecovery[mbName]
	for i, e := range tails {
		if e == tail {
			t.pendingRecovery[mbName] = append(tails[:i:i], tails[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	return replayed, nil
}

// withRefusal adds to a re-attachment through group mbName that a login
// refusal failed the cause a member relay refused the login with. The
// initiator sees only the refusal's wire class, so without it an outage
// behind the relay (the backend's host down) would read as a bare login
// failure. Any other failure is returned as is: a relay's refusal outlives
// the login it refused, until its next login succeeds.
func (t *TenantDeployment) withRefusal(mbName string, err error) error {
	if !errors.Is(err, initiator.ErrLoginFailed) {
		return err
	}
	for _, in := range t.Group(mbName) {
		if in.MB == nil {
			continue
		}
		if cause := in.MB.Relay.Refusal(); cause != nil {
			return fmt.Errorf("%w (relay %s refused: %v)", err, in.Name, cause)
		}
	}
	return err
}

// PendingRecoveries reports how many crash recoveries of this group still
// owe journal replay or volume re-attachment (see RetryRecoveries).
func (t *TenantDeployment) PendingRecoveries(mbName string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pendingRecovery[mbName])
}

// RetryRecoveries re-drives the unfinished tail of earlier crash
// recoveries whose journal replay or re-attachment failed transiently
// (backend outage, network cut). It returns the total journal records
// replayed; on error the remaining tails stay pending for the next retry.
func (t *TenantDeployment) RetryRecoveries(mbName string) (int, error) {
	t.scaleMu.Lock()
	defer t.scaleMu.Unlock()
	t.mu.Lock()
	tails := append([]*recoveryTail(nil), t.pendingRecovery[mbName]...)
	t.mu.Unlock()
	total := 0
	for _, tail := range tails {
		n, err := t.finishRecovery(mbName, tail)
		total += n
		if err != nil {
			return total, err
		}
		obs.Default().Eventf("core", "tenant %s: retried recovery of crashed %s/%s (%d journal records replayed)",
			t.Tenant, mbName, tail.inst, n)
	}
	return total, nil
}

// GroupStatus snapshots every member of a scalable middle-box group.
func (t *TenantDeployment) GroupStatus(mbName string) []MemberStatus {
	g := t.steeringGroup(mbName)
	insts := t.Group(mbName)
	// Replicate groups are pinned at one instance; its box's overload state
	// is the member's overload state.
	box := t.Replicator(mbName)
	out := make([]MemberStatus, 0, len(insts))
	for _, in := range insts {
		ms := MemberStatus{Name: in.Name, Host: in.Host}
		if g != nil {
			ms.Draining = g.Draining(in.Name)
		}
		if in.MB != nil {
			ms.Crashed = in.MB.Relay.Killed()
			st := in.MB.Relay.DrainStatus()
			ms.Draining = ms.Draining || st.Draining
			ms.Sessions = st.Sessions
			ms.JournalBytes = st.JournalBytes
			ms.CopyThreads = in.MB.Relay.CopyThreads()
		}
		if box != nil && !box.Killed() {
			ms.BreakerOpen = box.BreakerOpen()
		}
		out = append(out, ms)
	}
	return out
}

// Package cloud assembles the mini-IaaS of Figure 1: compute hosts running
// tenant VMs, a storage host running the volume service, the two isolated
// networks, the SDN controller, and the StorM splice plane. It provides the
// raw infrastructure operations (launch VM, create/attach volume, launch
// middle-box) that the StorM platform (internal/core) orchestrates.
package cloud

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sdn"
	"repro/internal/splice"
	"repro/internal/target"
	"repro/internal/volume"
)

// Config sizes the cloud.
type Config struct {
	// ComputeHosts is the number of compute hosts (default 4). Host 1 is
	// named compute1, etc.; every compute host has NICs on both networks.
	ComputeHosts int
	// Model is the fabric cost model (netsim.DefaultModel when zero).
	Model netsim.Model
	// DiskRead / DiskWrite are the storage medium models for volumes.
	DiskRead  blockdev.ServiceModel
	DiskWrite blockdev.ServiceModel
	// DiskConcurrency bounds concurrent medium accesses per volume.
	DiskConcurrency int
}

// VM is a tenant virtual machine.
type VM struct {
	Name     string
	Host     string
	Endpoint *netsim.Endpoint
}

// MiddleBox is a provisioned storage middle-box VM.
type MiddleBox struct {
	Name       string
	Host       string
	Mode       middlebox.Mode
	Endpoint   *netsim.Endpoint
	Relay      *middlebox.Relay
	RelayAddr  netsim.Addr
	InstanceIP string
	listener   *netsim.Listener
}

// Close stops the middle-box's relay.
func (m *MiddleBox) Close() {
	_ = m.listener.Close()
	m.Relay.Close()
}

// guestShards stripes the cloud's guest registries so concurrent tenants
// launching and removing VMs/middle-boxes hash to different locks.
const guestShards = 16

// guestShard is one stripe of the name→guest maps.
type guestShard struct {
	mu  sync.Mutex
	vms map[string]*VM
	mbs map[string]*MiddleBox
}

// Cloud is the assembled infrastructure.
type Cloud struct {
	Fabric     *netsim.Fabric
	Controller *sdn.Controller
	Plane      *splice.Plane
	Volumes    *volume.Service

	storageHost *netsim.Host
	computes    []*netsim.Host // immutable after New

	shards   [guestShards]guestShard
	nextIP   atomic.Int64
	nextHost atomic.Int64

	// hostLoad counts guests per compute host so placement is O(hosts)
	// instead of a scan over every guest in the cloud.
	loadMu   sync.Mutex
	hostLoad map[string]int
}

// shard returns the stripe owning a guest name (FNV-1a).
func (c *Cloud) shard(name string) *guestShard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &c.shards[h%guestShards]
}

// New builds the cloud.
func New(cfg Config) (*Cloud, error) {
	if cfg.ComputeHosts <= 0 {
		cfg.ComputeHosts = 4
	}
	model := cfg.Model
	if model.MTU == 0 {
		model = netsim.DefaultModel()
	}
	fabric := netsim.NewFabric(model)
	c := &Cloud{
		Fabric:     fabric,
		Controller: sdn.NewController(),
		hostLoad:   make(map[string]int),
	}
	for i := range c.shards {
		c.shards[i].vms = make(map[string]*VM)
		c.shards[i].mbs = make(map[string]*MiddleBox)
	}
	for i := 1; i <= cfg.ComputeHosts; i++ {
		h, err := fabric.AddHost(fmt.Sprintf("compute%d", i), map[netsim.Network]string{
			netsim.StorageNet:  fmt.Sprintf("10.0.0.%d", i),
			netsim.InstanceNet: fmt.Sprintf("192.168.0.%d", i),
		})
		if err != nil {
			return nil, err
		}
		c.computes = append(c.computes, h)
	}
	sh, err := fabric.AddHost("storage1", map[netsim.Network]string{
		netsim.StorageNet: "10.0.0.100",
	})
	if err != nil {
		return nil, err
	}
	c.storageHost = sh

	c.Plane = splice.NewPlane(fabric, c.Controller)

	vs, err := volume.NewService(sh.NewEndpoint("cinder-tgtd"), volume.Config{
		DiskRead:        cfg.DiskRead,
		DiskWrite:       cfg.DiskWrite,
		DiskConcurrency: cfg.DiskConcurrency,
		LoginHook: func(info target.LoginInfo) {
			c.Plane.Attributions().RecordLogin(info.TargetIQN, info.SourcePort)
		},
	})
	if err != nil {
		return nil, err
	}
	c.Volumes = vs
	return c, nil
}

// Close tears the cloud down.
func (c *Cloud) Close() {
	var mbs []*MiddleBox
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, mb := range sh.mbs {
			mbs = append(mbs, mb)
		}
		sh.mu.Unlock()
	}
	for _, mb := range mbs {
		mb.Close()
	}
	c.Volumes.Close()
}

// ComputeHosts lists the compute host names.
func (c *Cloud) ComputeHosts() []string {
	out := make([]string, len(c.computes))
	for i, h := range c.computes {
		out[i] = h.Name()
	}
	return out
}

// StorageHost returns the storage host name.
func (c *Cloud) StorageHost() string { return c.storageHost.Name() }

// HostCPU returns a host's CPU account.
func (c *Cloud) HostCPU(host string) *obs.CPUAccount {
	h := c.Fabric.Host(host)
	if h == nil {
		return nil
	}
	return h.CPU()
}

// allocIP hands out instance-network guest addresses: 192.168.100.1 and
// up, spilling into the next third octet every 254 guests. The range is
// disjoint from compute-host NICs (192.168.0.x) and the platform's gateway
// space (192.168.20.x–63.x); netsim treats addresses as opaque strings, so
// a third octet past 255 stays unique even at million-guest scale.
func (c *Cloud) allocIP() string {
	n := c.nextIP.Add(1) - 1
	return fmt.Sprintf("192.168.%d.%d", 100+n/254, 1+n%254)
}

// pickHost round-robins compute hosts when the caller does not care.
func (c *Cloud) pickHost() string {
	n := c.nextHost.Add(1) - 1
	return c.computes[int(n)%len(c.computes)].Name()
}

// PlaceHosts picks n compute hosts for a middle-box group, spreading the
// members across the least-loaded hosts (guests already placed count as
// load) so a scaled group doesn't stack its instances on one machine.
func (c *Cloud) PlaceHosts(n int) []string {
	return c.PlaceHostsAvoiding(n, nil)
}

// PlaceHostsAvoiding is PlaceHosts with a deny-list: hosts in avoid are
// skipped unless nothing else exists. Crash recovery uses it to place a
// replacement instance away from the machine that just took its
// predecessor down.
func (c *Cloud) PlaceHostsAvoiding(n int, avoid map[string]bool) []string {
	load := make(map[string]int, len(c.computes))
	c.loadMu.Lock()
	for h, v := range c.hostLoad {
		load[h] = v
	}
	c.loadMu.Unlock()
	candidates := make([]*netsim.Host, 0, len(c.computes))
	for _, h := range c.computes {
		if !avoid[h.Name()] {
			candidates = append(candidates, h)
		}
	}
	if len(candidates) == 0 {
		candidates = c.computes // single-host cloud: nowhere else to go
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		best := ""
		for _, h := range candidates {
			if best == "" || load[h.Name()] < load[best] {
				best = h.Name()
			}
		}
		load[best]++
		out = append(out, best)
	}
	return out
}

// addLoad moves a host's guest count by d (negative on guest removal).
func (c *Cloud) addLoad(host string, d int) {
	c.loadMu.Lock()
	c.hostLoad[host] += d
	if c.hostLoad[host] <= 0 {
		delete(c.hostLoad, host)
	}
	c.loadMu.Unlock()
}

// LaunchVM boots a tenant VM on the named compute host ("" picks one).
func (c *Cloud) LaunchVM(name, host string) (*VM, error) {
	if host == "" {
		host = c.pickHost()
	}
	h := c.Fabric.Host(host)
	if h == nil {
		return nil, fmt.Errorf("cloud: unknown host %q", host)
	}
	sh := c.shard(name)
	sh.mu.Lock()
	if _, ok := sh.vms[name]; ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("cloud: VM %q already exists", name)
	}
	sh.mu.Unlock()
	ep, err := h.NewGuest(name, c.allocIP())
	if err != nil {
		return nil, err
	}
	vm := &VM{Name: name, Host: host, Endpoint: ep}
	sh.mu.Lock()
	sh.vms[name] = vm
	sh.mu.Unlock()
	c.addLoad(host, 1)
	return vm, nil
}

// VM returns a launched VM by name.
func (c *Cloud) VM(name string) (*VM, error) {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vm, ok := sh.vms[name]
	if !ok {
		return nil, fmt.Errorf("cloud: unknown VM %q", name)
	}
	return vm, nil
}

// AttachVolume attaches a volume to a VM over the legacy direct path (no
// middle-boxes) and returns the VM-side block device. The attribution
// table records both halves of the binding.
func (c *Cloud) AttachVolume(vm *VM, volID string) (*initiator.Device, error) {
	vol, err := c.Volumes.Get(volID)
	if err != nil {
		return nil, err
	}
	if err := c.Volumes.MarkAttached(volID, vm.Name); err != nil {
		return nil, err
	}
	dev, err := c.loginAndOpen(vm.Endpoint, vm.Name, vol.IQN)
	if err != nil {
		_ = c.Volumes.MarkDetached(volID)
		return nil, err
	}
	c.Plane.Attributions().RecordAttachment(vm.Name, vol.IQN)
	return dev, nil
}

// loginAndOpen dials the volume service and opens the device.
func (c *Cloud) loginAndOpen(ep *netsim.Endpoint, vmName, iqn string) (*initiator.Device, error) {
	conn, err := ep.DialAddr(c.Volumes.TargetAddr())
	if err != nil {
		return nil, err
	}
	sess, err := initiator.Login(conn, initiator.Config{
		InitiatorIQN: "iqn.2016-04.edu.purdue.storm:init:" + vmName,
		TargetIQN:    iqn,
		AttachedVM:   vmName,
		Obs:          obs.Default(),
	})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	dev, err := initiator.OpenDevice(sess)
	if err != nil {
		_ = sess.Close()
		return nil, err
	}
	return dev, nil
}

// DetachVolume releases the attachment bookkeeping (the device should be
// closed by the caller).
func (c *Cloud) DetachVolume(volID string) error {
	vol, err := c.Volumes.Get(volID)
	if err != nil {
		return err
	}
	c.Plane.Attributions().RemoveAttachment(vol.IQN)
	return c.Volumes.MarkDetached(volID)
}

// ErrNoSuchMiddleBox reports an unknown middle-box name.
var ErrNoSuchMiddleBox = errors.New("cloud: no such middle-box")

// MBSpec describes a middle-box to provision.
type MBSpec struct {
	Name string
	// Host pins placement ("" picks round-robin).
	Host string
	Mode middlebox.Mode
	// BuildServices constructs the tenant service chain once the
	// middle-box VM exists (so factories can use its network identity,
	// e.g. to attach replica volumes). May be nil.
	BuildServices func(mb *MiddleBox) ([]middlebox.ServiceFactory, error)
	// JournalCapacity bounds the active relay's NVRAM buffer.
	JournalCapacity int
	// JournalDir, when set, gives the relay a crash-durable journal: a
	// per-session WAL under this directory that survives CrashMiddleBox
	// and can be replayed by a replacement via Relay.RecoverFrom.
	JournalDir string
	// Cost is the relay's interception cost model; a zero model keeps the
	// relay's defaults. CopyThreads in particular sizes the instance's
	// concurrent copy paths (its per-instance throughput ceiling).
	Cost middlebox.CostModel
	// ForwardConns widens the relay's downstream (pseudo-client) leg to
	// this many MC/S connections (default 1).
	ForwardConns int
}

// LaunchMiddleBox provisions a middle-box VM running a relay with the given
// service chain. Its relay listens inside the tenant network space and is
// isolated from tenant VMs.
func (c *Cloud) LaunchMiddleBox(spec MBSpec) (*MiddleBox, error) {
	name, host := spec.Name, spec.Host
	if host == "" {
		host = c.pickHost()
	}
	h := c.Fabric.Host(host)
	if h == nil {
		return nil, fmt.Errorf("cloud: unknown host %q", host)
	}
	ip := c.allocIP()
	ep, err := h.NewGuest(name, ip)
	if err != nil {
		return nil, err
	}
	mb := &MiddleBox{
		Name:       name,
		Host:       host,
		Mode:       spec.Mode,
		Endpoint:   ep,
		InstanceIP: ip,
	}
	var services []middlebox.ServiceFactory
	if spec.BuildServices != nil {
		if services, err = spec.BuildServices(mb); err != nil {
			return nil, fmt.Errorf("cloud: build services for %q: %w", name, err)
		}
	}
	relay, err := middlebox.NewRelay(middlebox.Config{
		Name:            name,
		Mode:            spec.Mode,
		Endpoint:        ep,
		Services:        services,
		JournalCapacity: spec.JournalCapacity,
		JournalDir:      spec.JournalDir,
		Cost:            spec.Cost,
		ForwardConns:    spec.ForwardConns,
		CPU:             h.CPU(),
		Obs:             obs.Default(),
	})
	if err != nil {
		return nil, err
	}
	addr := netsim.Addr{Net: netsim.InstanceNet, IP: ip, Port: 3260}
	ln, err := ep.ListenAddr(addr)
	if err != nil {
		return nil, err
	}
	go relay.Serve(ln)
	if err := c.Plane.RegisterMB(splice.MBInfo{Name: name, Host: host, InstanceIP: ip}); err != nil {
		_ = ln.Close()
		relay.Close()
		return nil, err
	}
	mb.Relay = relay
	mb.RelayAddr = addr
	mb.listener = ln
	sh := c.shard(name)
	sh.mu.Lock()
	sh.mbs[name] = mb
	sh.mu.Unlock()
	c.addLoad(host, 1)
	return mb, nil
}

// RemoveMiddleBox tears down a middle-box VM: the relay stops, the splice
// plane forgets the station, and the host releases the guest's address so
// the slot can be reused. The orchestrator calls this only after the
// instance has drained (no sessions, empty journal) — tearing down a live
// instance severs its established connections.
func (c *Cloud) RemoveMiddleBox(name string) error {
	sh := c.shard(name)
	sh.mu.Lock()
	mb, ok := sh.mbs[name]
	if ok {
		delete(sh.mbs, name)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchMiddleBox, name)
	}
	mb.Close()
	c.Plane.UnregisterMB(name)
	if h := c.Fabric.Host(mb.Host); h != nil {
		h.RemoveGuest(mb.InstanceIP)
	}
	c.addLoad(mb.Host, -1)
	return nil
}

// CrashMiddleBox simulates the middle-box VM dying: the relay crash-stops
// (journals freeze, appliers halt, sessions sever — see Relay.Kill), the
// splice plane forgets the station, and the host reclaims the guest slot.
// Unlike RemoveMiddleBox there is no drain: acknowledged-but-unapplied
// writes survive only in the relay's durable journal directory, which is
// deliberately left on disk for a replacement instance to recover.
func (c *Cloud) CrashMiddleBox(name string) error {
	sh := c.shard(name)
	sh.mu.Lock()
	mb, ok := sh.mbs[name]
	if ok {
		delete(sh.mbs, name)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchMiddleBox, name)
	}
	obs.Default().Eventf("cloud", "middle-box %s crashed on %s", name, mb.Host)
	mb.Relay.Kill()
	_ = mb.listener.Close()
	c.Plane.UnregisterMB(name)
	if h := c.Fabric.Host(mb.Host); h != nil {
		h.RemoveGuest(mb.InstanceIP)
	}
	c.addLoad(mb.Host, -1)
	return nil
}

// MBAttachVolume attaches a volume directly to a middle-box VM over the
// storage network (the replica service's backup volumes).
func (c *Cloud) MBAttachVolume(mb *MiddleBox, volID string) (*initiator.Device, error) {
	vol, err := c.Volumes.Get(volID)
	if err != nil {
		return nil, err
	}
	if err := c.Volumes.MarkAttached(volID, mb.Name); err != nil {
		return nil, err
	}
	dev, err := c.loginAndOpen(mb.Endpoint, mb.Name, vol.IQN)
	if err != nil {
		_ = c.Volumes.MarkDetached(volID)
		return nil, err
	}
	return dev, nil
}

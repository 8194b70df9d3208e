// Package sdn implements StorM's centralized SDN controller (Section III-A,
// "SDN-enabled Flow Steering"). The controller owns the virtual switches on
// every host and installs the per-chain flow rules of Figure 3: each rule
// matches the storage flow plus the previous station (the source-MAC
// analogue) and steers to the next middle-box. Chains can be mutated on
// demand — middle-boxes added or removed on a live path — by atomically
// replacing the chain's rules.
//
// A chain position may be an elastic instance group instead of a single
// middle-box: MBSpec.Instances lists the replicated instances, and the
// controller installs select-group rules (vswitch.Group) that hash each
// flow to one member with sticky affinity, so a connection's relay state
// stays on one instance across scale events. Groups are shared across the
// chains of a tenant by name, which keeps the flow→instance binding table
// consistent for every volume steered through the same replicated service.
package sdn

import (
	"fmt"
	"sync"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vswitch"
)

// IngressStation is the station name of a chain's entry point (the ingress
// storage gateway).
const IngressStation = "ingress"

// Instance is one member of a scaled middle-box position.
type Instance struct {
	// Name is the instance's unique station name.
	Name string
	// Host is the physical host the instance VM runs on.
	Host string
	// RelayAddr is the instance's relay listener for ModeTerminate.
	RelayAddr netsim.Addr
}

// MBSpec describes one middle-box position in a chain.
type MBSpec struct {
	// Name is the middle-box's unique station name. For a scaled position
	// (Instances non-empty) it is the group name.
	Name string
	// Host is the physical host the middle-box VM runs on (single-instance
	// positions only).
	Host string
	// Mode says whether the MB transparently forwards (MB-FWD) or
	// terminates the connection at its relay.
	Mode vswitch.Mode
	// RelayAddr is the relay listener for ModeTerminate (single-instance
	// positions only).
	RelayAddr netsim.Addr
	// Instances, when non-empty, makes this position an instance group:
	// flows are steered to one member with sticky affinity instead of a
	// fixed station.
	Instances []Instance
}

// Scaled reports whether the position is an instance group.
func (m MBSpec) Scaled() bool { return len(m.Instances) > 0 }

// Chain is a deployed forwarding chain for one storage flow selector.
type Chain struct {
	// ID uniquely names the chain (rule IDs are derived from it).
	ID string
	// Selector matches the steered flow as seen inside the instance
	// network (after the ingress gateway's masquerading). The source port
	// is typically wildcarded because each deployment owns its gateway
	// pair.
	Selector vswitch.Match
	// IngressHost is the host of the ingress gateway, where the walk
	// starts.
	IngressHost string
	// MBs is the ordered middle-box list.
	MBs []MBSpec
}

// Step is one resolved steering step for a flow. For group positions the
// MB names the selected member instance and Group is the select group that
// bound the flow to it (nil for a fixed station).
type Step struct {
	MB    MBSpec
	Group *vswitch.Group
}

// groupEntry tracks a shared select group and the chains referencing it.
type groupEntry struct {
	g      *vswitch.Group
	chains map[string]bool
}

// Controller is the centralized SDN controller.
type Controller struct {
	mu       sync.RWMutex
	switches map[string]*vswitch.Switch
	chains   map[string]*Chain
	groups   map[string]*groupEntry
	// chainHosts remembers which hosts each chain installed rules on, so
	// teardown sweeps only those switches instead of every switch in the
	// cloud — under tenant churn the old full sweep was O(chains × hosts).
	chainHosts map[string]map[string]bool

	lookupHits   *obs.Counter
	lookupMisses *obs.Counter
}

// NewController creates an empty controller.
func NewController() *Controller {
	return &Controller{
		switches:     make(map[string]*vswitch.Switch),
		chains:       make(map[string]*Chain),
		groups:       make(map[string]*groupEntry),
		chainHosts:   make(map[string]map[string]bool),
		lookupHits:   obs.Default().Counter("sdn.flow_lookup.hits"),
		lookupMisses: obs.Default().Counter("sdn.flow_lookup.misses"),
	}
}

// SwitchFor returns (creating on demand) the virtual switch on host.
func (c *Controller) SwitchFor(host string) *vswitch.Switch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.switchForLocked(host)
}

func (c *Controller) switchForLocked(host string) *vswitch.Switch {
	sw, ok := c.switches[host]
	if !ok {
		sw = vswitch.New(host)
		c.switches[host] = sw
	}
	return sw
}

// Group returns the live select group of a scaled chain position by its
// group name, or nil. The orchestrator uses it to inspect bindings and to
// mark members draining.
func (c *Controller) Group(name string) *vswitch.Group {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ge, ok := c.groups[name]; ok {
		return ge.g
	}
	return nil
}

// groupLocked returns (creating on demand) the shared group entry.
func (c *Controller) groupLocked(name string) *groupEntry {
	ge, ok := c.groups[name]
	if !ok {
		ge = &groupEntry{g: vswitch.NewGroup(), chains: make(map[string]bool)}
		c.groups[name] = ge
	}
	return ge
}

// releaseGroupsLocked drops chainID's reference on every group not named in
// keep, deleting groups no chain references anymore (and their binding
// state with them).
func (c *Controller) releaseGroupsLocked(chainID string, keep map[string]bool) {
	for name, ge := range c.groups {
		if ge.chains[chainID] && !keep[name] {
			delete(ge.chains, chainID)
			if len(ge.chains) == 0 {
				delete(c.groups, name)
			}
		}
	}
}

// groupNames returns the set of group names a middle-box list references.
func groupNames(mbs []MBSpec) map[string]bool {
	out := make(map[string]bool)
	for _, mb := range mbs {
		if mb.Scaled() {
			out[mb.Name] = true
		}
	}
	return out
}

// copyMBs deep-copies a middle-box list (instances included).
func copyMBs(mbs []MBSpec) []MBSpec {
	out := append([]MBSpec(nil), mbs...)
	for i := range out {
		out[i].Instances = append([]Instance(nil), out[i].Instances...)
	}
	return out
}

// validateChain checks a chain's structural invariants.
func validateChain(ch *Chain) error {
	if ch.ID == "" {
		return fmt.Errorf("sdn: chain must have an ID")
	}
	if ch.IngressHost == "" {
		return fmt.Errorf("sdn: chain %q missing ingress host", ch.ID)
	}
	for i, mb := range ch.MBs {
		if mb.Name == "" {
			return fmt.Errorf("sdn: chain %q middle-box %d missing name", ch.ID, i)
		}
		if !mb.Scaled() {
			if mb.Host == "" {
				return fmt.Errorf("sdn: chain %q middle-box %q missing host", ch.ID, mb.Name)
			}
			if mb.Mode == vswitch.ModeTerminate && mb.RelayAddr.IsZero() {
				return fmt.Errorf("sdn: chain %q middle-box %q terminates without a relay address", ch.ID, mb.Name)
			}
			continue
		}
		for j, inst := range mb.Instances {
			if inst.Name == "" || inst.Host == "" {
				return fmt.Errorf("sdn: chain %q group %q instance %d missing name or host", ch.ID, mb.Name, j)
			}
			if mb.Mode == vswitch.ModeTerminate && inst.RelayAddr.IsZero() {
				return fmt.Errorf("sdn: chain %q group %q instance %q terminates without a relay address", ch.ID, mb.Name, inst.Name)
			}
		}
	}
	return nil
}

// InstallChain deploys the chain's flow rules across the switches: the rule
// steering to MB i lives on the switch of the previous station's host,
// matching traffic coming from that station (Figure 3's forwarding units).
// For scaled positions a rule is installed on every previous instance's
// host and the rules of the following hop match each member station.
func (c *Controller) InstallChain(ch *Chain) error {
	if err := validateChain(ch); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.chains[ch.ID]; ok {
		return fmt.Errorf("sdn: chain %q already installed", ch.ID)
	}
	if err := c.installRulesLocked(ch); err != nil {
		c.removeRulesLocked(ch)
		c.releaseGroupsLocked(ch.ID, nil)
		return err
	}
	cp := *ch
	cp.MBs = copyMBs(ch.MBs)
	c.chains[ch.ID] = &cp
	return nil
}

// station is one (name, host) point a rule can match traffic from.
type station struct {
	name string
	host string
}

func (c *Controller) installRulesLocked(ch *Chain) error {
	prev := []station{{IngressStation, ch.IngressHost}}
	for i, mb := range ch.MBs {
		var act vswitch.Action
		var next []station
		if mb.Scaled() {
			ge := c.groupLocked(mb.Name)
			members := make([]vswitch.GroupMember, len(mb.Instances))
			for j, inst := range mb.Instances {
				members[j] = vswitch.GroupMember{Station: inst.Name, Host: inst.Host, TerminateAddr: inst.RelayAddr}
				next = append(next, station{inst.Name, inst.Host})
			}
			ge.g.SetMembers(members)
			ge.chains[ch.ID] = true
			act = vswitch.Action{Mode: mb.Mode, Station: mb.Name, Group: ge.g}
		} else {
			act = vswitch.Action{Mode: mb.Mode, Station: mb.Name, Host: mb.Host, TerminateAddr: mb.RelayAddr}
			next = []station{{mb.Name, mb.Host}}
		}
		for _, pv := range prev {
			m := ch.Selector
			m.FromStation = pv.name
			rule := &vswitch.Rule{
				ID:       fmt.Sprintf("%s/hop%d/%s", ch.ID, i, pv.name),
				Priority: 100,
				Match:    m,
				Action:   act,
			}
			hosts := c.chainHosts[ch.ID]
			if hosts == nil {
				hosts = make(map[string]bool)
				c.chainHosts[ch.ID] = hosts
			}
			hosts[pv.host] = true
			if err := c.switchForLocked(pv.host).Install(rule); err != nil {
				return err
			}
		}
		prev = next
	}
	return nil
}

func (c *Controller) removeRulesLocked(ch *Chain) {
	prefix := ch.ID + "/"
	for host := range c.chainHosts[ch.ID] {
		if sw := c.switches[host]; sw != nil {
			sw.RemovePrefix(prefix)
		}
	}
	delete(c.chainHosts, ch.ID)
}

// RemoveChain tears down the chain's rules. Established connections are
// unaffected (routes are resolved at connection setup).
func (c *Controller) RemoveChain(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.chains[id]
	if !ok {
		return
	}
	c.removeRulesLocked(ch)
	c.releaseGroupsLocked(id, nil)
	delete(c.chains, id)
}

// UpdateChain atomically replaces the chain's middle-box list — the
// on-demand scaling path: new flows see the new chain immediately. On a
// failed reinstall the previous middle-box list and its rules are restored,
// so the chain registry never points at an uninstalled chain; if even the
// rollback fails the chain is removed outright.
func (c *Controller) UpdateChain(id string, mbs []MBSpec) error {
	probe := &Chain{ID: id, IngressHost: "-", MBs: mbs}
	if err := validateChain(probe); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.chains[id]
	if !ok {
		return fmt.Errorf("sdn: chain %q not installed", id)
	}
	prev := copyMBs(ch.MBs)
	c.removeRulesLocked(ch)
	ch.MBs = copyMBs(mbs)
	err := c.installRulesLocked(ch)
	if err == nil {
		c.releaseGroupsLocked(id, groupNames(ch.MBs))
		return nil
	}
	// Reinstall failed partway: scrub the partial rules and restore the
	// previous chain so the registry stays consistent with the switches.
	c.removeRulesLocked(ch)
	ch.MBs = prev
	if rberr := c.installRulesLocked(ch); rberr != nil {
		c.removeRulesLocked(ch)
		c.releaseGroupsLocked(id, nil)
		delete(c.chains, id)
		return fmt.Errorf("sdn: update chain %q: %v (rollback also failed: %v)", id, err, rberr)
	}
	c.releaseGroupsLocked(id, groupNames(ch.MBs))
	return err
}

// Walk resolves the steering steps for a flow entering the instance network
// at (startHost, startStation). It follows installed rules switch by switch
// until no rule matches or a terminating middle-box is reached. The whole
// walk runs under one read-consistent snapshot of the controller: a
// concurrent UpdateChain can never interleave mid-walk, so the returned
// path is entirely the old chain or entirely the new one. Group positions
// resolve to the flow's affine member instance.
func (c *Controller) Walk(flow netsim.Flow, startHost, startStation string) []Step {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var steps []Step
	host, station := startHost, startStation
	for i := 0; i < 64; i++ { // cycle guard
		sw := c.switches[host]
		if sw == nil {
			c.lookupMisses.Inc()
			return steps
		}
		rule := sw.Lookup(flow, station)
		if rule == nil {
			c.lookupMisses.Inc()
			return steps
		}
		c.lookupHits.Inc()
		act := rule.Action
		if act.Group != nil {
			m, ok := act.Group.Select(flow)
			if !ok {
				c.lookupMisses.Inc()
				return steps
			}
			act.Station, act.Host, act.TerminateAddr = m.Station, m.Host, m.TerminateAddr
		}
		steps = append(steps, Step{MB: MBSpec{
			Name:      act.Station,
			Host:      act.Host,
			Mode:      act.Mode,
			RelayAddr: act.TerminateAddr,
		}, Group: act.Group})
		if act.Mode == vswitch.ModeTerminate {
			return steps
		}
		host, station = act.Host, act.Station
	}
	return steps
}

package vswitch

import (
	"hash/fnv"
	"sync"

	"repro/internal/netsim"
)

// GroupMember is one instance of a replicated middle-box position: a
// station a select group can steer flows to.
type GroupMember struct {
	// Station is the instance's unique station name.
	Station string
	// Host is the physical host the instance runs on.
	Host string
	// TerminateAddr is the instance's relay listener (ModeTerminate groups).
	TerminateAddr netsim.Addr
}

// Group is a select group: the steering primitive behind horizontally
// scaled middle-boxes. A rule whose Action references a group does not name
// a fixed next station; instead each flow is assigned a member on first
// lookup and sticks to it for the flow's lifetime, so the per-connection
// TCP/relay state a terminating middle-box accumulates stays on one
// instance (flow-affine steering). Members marked draining receive no new
// flows but keep serving the flows already bound to them until those
// connections end.
//
// A Group is shared by reference: the controller installs the same *Group
// in rules on every switch that steers to the replicated position, so the
// binding table is consistent no matter where on the path selection
// happens.
type Group struct {
	mu       sync.Mutex
	members  []GroupMember
	draining map[string]bool
	bindings map[netsim.Flow]string // flow -> member station
}

// NewGroup creates an empty select group.
func NewGroup() *Group {
	return &Group{
		draining: make(map[string]bool),
		bindings: make(map[netsim.Flow]string),
	}
}

// SetMembers replaces the member list. Bindings to members that survive the
// change are preserved (a scale event never remaps an existing flow);
// bindings and drain marks of removed members are pruned, and their flows
// rebind on their next lookup.
func (g *Group) SetMembers(members []GroupMember) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append([]GroupMember(nil), members...)
	present := make(map[string]bool, len(members))
	for _, m := range members {
		present[m.Station] = true
	}
	for f, st := range g.bindings {
		if !present[st] {
			delete(g.bindings, f)
		}
	}
	for st := range g.draining {
		if !present[st] {
			delete(g.draining, st)
		}
	}
}

// Len returns the number of members.
func (g *Group) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// SetDraining marks (or unmarks) a member as draining: new flows are no
// longer assigned to it, and flows that were bound to it rebind elsewhere
// on their next connection setup (its established connections are routed
// already and keep flowing).
func (g *Group) SetDraining(station string, draining bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if draining {
		g.draining[station] = true
	} else {
		delete(g.draining, station)
	}
}

// Draining reports whether the member is refusing new flows.
func (g *Group) Draining(station string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining[station]
}

// Select resolves the member serving flow f, binding it on first sight.
// New flows go to the least-bound accepting member, with the flow hash
// breaking ties, so load spreads evenly as the group grows; a bound flow
// keeps its member until its connection closes (Forget) or the member is
// removed or starts draining. Select
// reports false only when the group has no members at all.
func (g *Group) Select(f netsim.Flow) (GroupMember, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st, ok := g.bindings[f]; ok {
		if m := g.memberLocked(st); m != nil && !g.draining[st] {
			return *m, true
		}
		// Member gone or draining: this is a fresh connection setup (bound
		// routes are resolved once, at dial), so rebind among the living.
		delete(g.bindings, f)
	}
	if len(g.members) == 0 {
		return GroupMember{}, false
	}
	elig := make([]GroupMember, 0, len(g.members))
	for _, m := range g.members {
		if !g.draining[m.Station] {
			elig = append(elig, m)
		}
	}
	if len(elig) == 0 {
		// Every member is draining; keep serving rather than black-hole.
		elig = append(elig, g.members...)
	}
	load := g.loadLocked()
	min := -1
	for _, m := range elig {
		if min < 0 || load[m.Station] < min {
			min = load[m.Station]
		}
	}
	ties := elig[:0]
	for _, m := range elig {
		if load[m.Station] == min {
			ties = append(ties, m)
		}
	}
	chosen := ties[flowHash(f)%uint64(len(ties))]
	g.bindings[f] = chosen.Station
	return chosen, true
}

// Forget drops a flow's binding when its connection closes (the splice
// plane's Route.Release); its next appearance selects afresh.
func (g *Group) Forget(f netsim.Flow) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.bindings, f)
}

func (g *Group) loadLocked() map[string]int {
	load := make(map[string]int, len(g.members))
	for _, m := range g.members {
		load[m.Station] = 0
	}
	for _, st := range g.bindings {
		load[st]++
	}
	return load
}

func (g *Group) memberLocked(station string) *GroupMember {
	for i := range g.members {
		if g.members[i].Station == station {
			return &g.members[i]
		}
	}
	return nil
}

// flowHash digests the flow tuple for deterministic tie-breaking.
func flowHash(f netsim.Flow) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(f.SrcIP))
	_, _ = h.Write([]byte{byte(f.SrcPort >> 8), byte(f.SrcPort), byte(f.Net)})
	_, _ = h.Write([]byte(f.DstIP))
	_, _ = h.Write([]byte{byte(f.DstPort >> 8), byte(f.DstPort)})
	return h.Sum64()
}

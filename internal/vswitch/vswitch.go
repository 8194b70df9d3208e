// Package vswitch implements the SDN-enabled virtual switches of StorM's
// forwarding plane (Figure 3). Each host runs one switch holding a
// prioritized flow table. Rules match a storage flow's 4-tuple plus the
// previous station (the analogue of the paper's source-MAC match) and steer
// the flow to the next middle-box — either transparently (IP forwarding, the
// MB-FWD mode) or by terminating the connection at the middle-box's relay.
//
// The flow table is published RCU-style: writers (Install/Remove/
// RemovePrefix) build a new immutable ruleSet under the writer mutex and
// swap it in with one atomic store, while Lookup — the per-packet path —
// reads the current snapshot without taking any lock and without
// allocating. Non-wildcard rules are additionally indexed by their exact
// (flow, station) key, so the common fully-specified match is a single map
// probe instead of a linear scan.
package vswitch

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
)

// Mode says how a steered middle-box handles the flow.
type Mode int

// Steering modes.
const (
	// ModeForward passes packets through the middle-box's kernel
	// forwarding path without terminating the connection (MB-FWD).
	ModeForward Mode = iota + 1
	// ModeTerminate lands the connection on the middle-box's relay
	// listener (passive/active relay).
	ModeTerminate
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeForward:
		return "forward"
	case ModeTerminate:
		return "terminate"
	default:
		return "mode(?)"
	}
}

// Match selects flows at a switch. Zero fields are wildcards. FromStation
// matches the station the packet came from (source-MAC analogue): the
// previous middle-box name, or "" for "any".
type Match struct {
	SrcIP       string
	SrcPort     int
	DstIP       string
	DstPort     int
	FromStation string
}

// Matches reports whether the rule selects the flow arriving from station.
func (m Match) Matches(f netsim.Flow, station string) bool {
	if m.SrcIP != "" && m.SrcIP != f.SrcIP {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != f.SrcPort {
		return false
	}
	if m.DstIP != "" && m.DstIP != f.DstIP {
		return false
	}
	if m.DstPort != 0 && m.DstPort != f.DstPort {
		return false
	}
	if m.FromStation != "" && m.FromStation != station {
		return false
	}
	return true
}

// exact reports whether the match has no wildcard fields, i.e. it selects
// exactly one (flow, station) key and can live in the exact-match index.
func (m Match) exact() bool {
	return m.SrcIP != "" && m.SrcPort != 0 && m.DstIP != "" && m.DstPort != 0 && m.FromStation != ""
}

// exactKey is the exact-match index key: the full 4-tuple plus the arriving
// station.
type exactKey struct {
	srcIP   string
	srcPort int
	dstIP   string
	dstPort int
	station string
}

// Action is the rule's steering decision.
type Action struct {
	Mode Mode
	// Station names the next middle-box (its host for forwarding mode).
	// For group actions it names the group; the serving instance comes
	// from Group.Select.
	Station string
	// Host is the physical host the station runs on.
	Host string
	// TerminateAddr is the relay listener address for ModeTerminate.
	TerminateAddr netsim.Addr
	// Group, when non-nil, makes this a select-group action: the next
	// station is not fixed but resolved per flow with sticky affinity.
	// Station/Host/TerminateAddr above are ignored in favour of the
	// selected member's.
	Group *Group
}

// Rule is a prioritized flow-table entry.
type Rule struct {
	ID       string
	Priority int
	Match    Match
	Action   Action
}

// String renders the rule.
func (r *Rule) String() string {
	return fmt.Sprintf("flow[%s p%d %+v -> %s@%s]", r.ID, r.Priority, r.Match, r.Action.Mode, r.Action.Station)
}

// indexedRule pairs a rule with its position in the evaluation order, so
// the exact-index hit and the wildcard-scan hit can be arbitrated by "who
// comes first in the table".
type indexedRule struct {
	r   *Rule
	pos int
}

// ruleSet is one immutable snapshot of the flow table. Readers obtain it
// with a single atomic load and never see a partially-updated table;
// writers replace it wholesale (copy-on-write).
type ruleSet struct {
	// rules is the full table in evaluation order (priority desc, install
	// order asc). Shared with Rules() callers: never mutated after publish.
	rules []*Rule
	// wild lists the rules with at least one wildcard field, in evaluation
	// order.
	wild []indexedRule
	// exact indexes fully-specified rules by their (flow, station) key.
	// When several exact rules share a key, the earliest in evaluation
	// order wins (the only one a scan could ever return).
	exact map[exactKey]indexedRule
}

var emptyRuleSet = &ruleSet{}

// Switch is one host's SDN-enabled virtual switch.
type Switch struct {
	host string

	set atomic.Pointer[ruleSet]

	mu    sync.Mutex // serializes writers; Lookup never takes it
	seq   int
	order map[string]int
}

// New creates a switch for the named host.
func New(host string) *Switch {
	s := &Switch{host: host, order: make(map[string]int)}
	s.set.Store(emptyRuleSet)
	return s
}

// publish builds the derived indexes for an evaluation-ordered rule slice
// and swaps the snapshot in. Caller holds s.mu.
func (s *Switch) publish(rules []*Rule) {
	rs := &ruleSet{rules: rules}
	for i, r := range rules {
		if r.Match.exact() {
			if rs.exact == nil {
				rs.exact = make(map[exactKey]indexedRule)
			}
			k := exactKey{r.Match.SrcIP, r.Match.SrcPort, r.Match.DstIP, r.Match.DstPort, r.Match.FromStation}
			if _, dup := rs.exact[k]; !dup {
				rs.exact[k] = indexedRule{r, i}
			}
			continue
		}
		rs.wild = append(rs.wild, indexedRule{r, i})
	}
	s.set.Store(rs)
}

// Install adds a rule. IDs must be unique per switch.
func (s *Switch) Install(r *Rule) error {
	if r.ID == "" {
		return fmt.Errorf("vswitch: rule must have an ID")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.order[r.ID]; ok {
		return fmt.Errorf("vswitch: duplicate rule ID %q on %s", r.ID, s.host)
	}
	s.order[r.ID] = s.seq
	s.seq++
	cur := s.set.Load().rules
	rules := make([]*Rule, 0, len(cur)+1)
	rules = append(rules, cur...)
	rules = append(rules, r)
	sort.SliceStable(rules, func(i, j int) bool {
		if rules[i].Priority != rules[j].Priority {
			return rules[i].Priority > rules[j].Priority
		}
		return s.order[rules[i].ID] < s.order[rules[j].ID]
	})
	s.publish(rules)
	return nil
}

// RemovePrefix deletes every rule whose ID begins with prefix, used to tear
// down a whole chain atomically. When no rule carries the prefix the
// current snapshot is kept as-is, so sweeping a switch the chain never
// touched costs no allocation.
func (s *Switch) RemovePrefix(prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.set.Load().rules
	n := 0
	for _, r := range cur {
		if len(r.ID) >= len(prefix) && r.ID[:len(prefix)] == prefix {
			n++
		}
	}
	if n == 0 {
		return
	}
	rules := make([]*Rule, 0, len(cur)-n)
	for _, r := range cur {
		if len(r.ID) >= len(prefix) && r.ID[:len(prefix)] == prefix {
			delete(s.order, r.ID)
			continue
		}
		rules = append(rules, r)
	}
	s.publish(rules)
}

// Lookup finds the highest-priority rule matching the flow arriving from
// station. It returns nil when no rule matches
// (normal L2/L3 forwarding applies). Lookup is lock-free and allocation-
// free: it reads one immutable snapshot, probes the exact-match index, and
// scans only the wildcard rules that could outrank the indexed hit.
func (s *Switch) Lookup(f netsim.Flow, station string) *Rule {
	rs := s.set.Load()
	var best *Rule
	bestPos := int(^uint(0) >> 1) // max int
	if rs.exact != nil {
		if ir, ok := rs.exact[exactKey{f.SrcIP, f.SrcPort, f.DstIP, f.DstPort, station}]; ok {
			best, bestPos = ir.r, ir.pos
		}
	}
	for _, ir := range rs.wild {
		if ir.pos >= bestPos {
			break // ordered: nothing later can outrank the exact hit
		}
		if ir.r.Match.Matches(f, station) {
			best = ir.r
			break
		}
	}
	return best
}

// Rules returns the current snapshot in evaluation order. The slice is the
// switch's immutable published table: callers may read it freely but must
// not modify it. Unlike the pre-RCU implementation this is O(1) — pollers
// under churn no longer induce a quadratic copy.
func (s *Switch) Rules() []*Rule {
	return s.set.Load().rules
}

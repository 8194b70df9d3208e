// Package nat implements the address-translation rule engine StorM's
// network splicing is built from: SNAT/DNAT rules with wildcard matching,
// IP masquerading, and per-rule hit counters. Rule tables live on hosts and
// gateways; the splice forwarding plane evaluates them when resolving a
// flow's route, exactly where iptables would rewrite packets in the paper's
// prototype.
package nat

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Match selects flows. Zero-valued fields are wildcards.
type Match struct {
	Net     netsim.Network
	SrcIP   string
	SrcPort int
	DstIP   string
	DstPort int
}

// Matches reports whether the flow satisfies every non-wildcard field.
func (m Match) Matches(f netsim.Flow) bool {
	if m.Net != 0 && m.Net != f.Net {
		return false
	}
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
	return true
}

// Action rewrites flow addresses. Empty fields leave the flow unchanged;
// a zero port in SNAT/DNAT preserves the original port (masquerading).
type Action struct {
	SNATIP   string
	SNATPort int
	DNATIP   string
	DNATPort int
}

// Apply rewrites f according to the action.
func (a Action) Apply(f netsim.Flow) netsim.Flow {
	if a.SNATIP != "" {
		f.SrcIP = a.SNATIP
		if a.SNATPort != 0 {
			f.SrcPort = a.SNATPort
		}
	}
	if a.DNATIP != "" {
		f.DstIP = a.DNATIP
		if a.DNATPort != 0 {
			f.DstPort = a.DNATPort
		}
	}
	return f
}

// Rule is one prioritized translation rule.
type Rule struct {
	ID       string
	Priority int
	Match    Match
	Action   Action
}

// String renders the rule compactly.
func (r *Rule) String() string {
	return fmt.Sprintf("nat[%s p%d %+v -> %+v]", r.ID, r.Priority, r.Match, r.Action)
}

// Table is an ordered NAT rule table. All methods are safe for concurrent
// use. Rules are evaluated highest priority first; ties break by insertion
// order; only the first matching rule applies (iptables first-match).
type Table struct {
	mu    sync.Mutex
	rules []*Rule
	seq   int
	order map[string]int

	rewrites *obs.Counter
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		order:    make(map[string]int),
		rewrites: obs.Default().Counter("nat.rewrites"),
	}
}

// Add inserts a rule. The ID must be unique within the table.
func (t *Table) Add(r *Rule) error {
	if r.ID == "" {
		return fmt.Errorf("nat: rule must have an ID")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.order[r.ID]; ok {
		return fmt.Errorf("nat: duplicate rule ID %q", r.ID)
	}
	t.order[r.ID] = t.seq
	t.seq++
	t.rules = append(t.rules, r)
	sort.SliceStable(t.rules, func(i, j int) bool {
		if t.rules[i].Priority != t.rules[j].Priority {
			return t.rules[i].Priority > t.rules[j].Priority
		}
		return t.order[t.rules[i].ID] < t.order[t.rules[j].ID]
	})
	return nil
}

// Remove deletes the rule with the given ID. Removing a missing rule is a
// no-op, mirroring iptables -D semantics on already-removed rules.
func (t *Table) Remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range t.rules {
		if r.ID == id {
			t.rules = append(t.rules[:i], t.rules[i+1:]...)
			delete(t.order, id)
			return
		}
	}
}

// Len returns the number of installed rules.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rules)
}

// Apply evaluates the table against f. It returns the (possibly rewritten)
// flow, the matching rule (nil if none), and whether any rule matched.
//
// Established flows are unaffected by later rule changes because the splice
// layer evaluates tables only at connection setup — this is what makes the
// paper's atomic attachment trick (install rules, attach volume, remove
// rules) safe for concurrent attachments.
func (t *Table) Apply(f netsim.Flow) (netsim.Flow, *Rule, bool) {
	t.mu.Lock()
	rules := make([]*Rule, len(t.rules))
	copy(rules, t.rules)
	t.mu.Unlock()
	for _, r := range rules {
		if r.Match.Matches(f) {
			t.rewrites.Inc()
			out := r.Action.Apply(f)
			obs.Default().Eventf("nat", "rule %s rewrote %s:%d->%s:%d to %s:%d->%s:%d",
				r.ID, f.SrcIP, f.SrcPort, f.DstIP, f.DstPort,
				out.SrcIP, out.SrcPort, out.DstIP, out.DstPort)
			return out, r, true
		}
	}
	return f, nil, false
}

// Redirect returns an action that rewrites the destination address.
func Redirect(ip string, port int) Action { return Action{DNATIP: ip, DNATPort: port} }

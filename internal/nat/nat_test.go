package nat

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

func flow() netsim.Flow {
	return netsim.Flow{
		Net:     netsim.StorageNet,
		SrcIP:   "10.0.0.1",
		SrcPort: 40000,
		DstIP:   "10.0.0.100",
		DstPort: 3260,
	}
}

func TestMatchWildcards(t *testing.T) {
	f := flow()
	tests := []struct {
		name string
		give Match
		want bool
	}{
		{"empty matches all", Match{}, true},
		{"exact", Match{Net: netsim.StorageNet, SrcIP: "10.0.0.1", SrcPort: 40000, DstIP: "10.0.0.100", DstPort: 3260}, true},
		{"dst only", Match{DstIP: "10.0.0.100", DstPort: 3260}, true},
		{"wrong net", Match{Net: netsim.InstanceNet}, false},
		{"wrong src ip", Match{SrcIP: "10.0.0.2"}, false},
		{"wrong src port", Match{SrcPort: 1}, false},
		{"wrong dst ip", Match{DstIP: "10.0.0.101"}, false},
		{"wrong dst port", Match{DstPort: 80}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Matches(f); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestActionApply(t *testing.T) {
	f := flow()
	got := Action{SNATIP: "192.168.0.10", SNATPort: 5555, DNATIP: "192.168.0.20", DNATPort: 3260}.Apply(f)
	if got.SrcIP != "192.168.0.10" || got.SrcPort != 5555 {
		t.Errorf("SNAT result %+v", got)
	}
	if got.DstIP != "192.168.0.20" || got.DstPort != 3260 {
		t.Errorf("DNAT result %+v", got)
	}
	// A source rewrite without a port keeps the source port.
	got = Action{SNATIP: "192.168.0.10"}.Apply(f)
	if got.SrcIP != "192.168.0.10" || got.SrcPort != 40000 {
		t.Errorf("source rewrite result %+v", got)
	}
	// Redirect keeps the source untouched.
	got = Redirect("192.168.0.20", 13260).Apply(f)
	if got.SrcIP != f.SrcIP || got.DstIP != "192.168.0.20" || got.DstPort != 13260 {
		t.Errorf("Redirect result %+v", got)
	}
	// Empty action is identity.
	if got := (Action{}).Apply(f); got != f {
		t.Errorf("empty Action changed flow: %+v", got)
	}
}

func TestTableFirstMatchByPriority(t *testing.T) {
	tbl := NewTable()
	mustAdd(t, tbl, &Rule{ID: "low", Priority: 1, Match: Match{DstPort: 3260}, Action: Redirect("1.1.1.1", 0)})
	mustAdd(t, tbl, &Rule{ID: "high", Priority: 10, Match: Match{DstPort: 3260}, Action: Redirect("2.2.2.2", 0)})
	got, rule, ok := tbl.Apply(flow())
	if !ok || rule.ID != "high" {
		t.Fatalf("matched rule = %v, want high", rule)
	}
	if got.DstIP != "2.2.2.2" {
		t.Errorf("DstIP = %q, want 2.2.2.2", got.DstIP)
	}
}

func TestTableInsertionOrderBreaksTies(t *testing.T) {
	tbl := NewTable()
	mustAdd(t, tbl, &Rule{ID: "first", Priority: 5, Match: Match{}, Action: Redirect("1.1.1.1", 0)})
	mustAdd(t, tbl, &Rule{ID: "second", Priority: 5, Match: Match{}, Action: Redirect("2.2.2.2", 0)})
	_, rule, ok := tbl.Apply(flow())
	if !ok || rule.ID != "first" {
		t.Errorf("matched %v, want first-inserted rule", rule)
	}
}

func TestTableNoMatchPassesThrough(t *testing.T) {
	tbl := NewTable()
	mustAdd(t, tbl, &Rule{ID: "r", Match: Match{DstPort: 9999}, Action: Redirect("9.9.9.9", 0)})
	got, rule, ok := tbl.Apply(flow())
	if ok || rule != nil {
		t.Error("unexpected match")
	}
	if got != flow() {
		t.Errorf("flow modified without match: %+v", got)
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable()
	mustAdd(t, tbl, &Rule{ID: "r", Match: Match{}, Action: Redirect("9.9.9.9", 0)})
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	tbl.Remove("r")
	if tbl.Len() != 0 {
		t.Errorf("Len after Remove = %d", tbl.Len())
	}
	if _, _, ok := tbl.Apply(flow()); ok {
		t.Error("removed rule still matches")
	}
	tbl.Remove("r") // removing again is a no-op
}

func TestTableDuplicateID(t *testing.T) {
	tbl := NewTable()
	mustAdd(t, tbl, &Rule{ID: "r", Match: Match{}})
	if err := tbl.Add(&Rule{ID: "r", Match: Match{}}); err == nil {
		t.Error("duplicate ID: want error")
	}
	if err := tbl.Add(&Rule{}); err == nil {
		t.Error("empty ID: want error")
	}
}

func TestTableRulesSnapshot(t *testing.T) {
	tbl := NewTable()
	mustAdd(t, tbl, &Rule{ID: "a", Priority: 1, Match: Match{}})
	mustAdd(t, tbl, &Rule{ID: "b", Priority: 2, Match: Match{}})
	if rules := tbl.rules; len(rules) != 2 || rules[0].ID != "b" {
		t.Errorf("rules = %v, want priority order [b a]", rules)
	}
}

func TestTableConcurrentApplyAndMutate(t *testing.T) {
	tbl := NewTable()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := fmt.Sprintf("r-%d-%d", i, j)
				if err := tbl.Add(&Rule{ID: id, Match: Match{DstPort: 3260}}); err != nil {
					t.Errorf("Add: %v", err)
				}
				tbl.Apply(flow())
				tbl.Remove(id)
			}
		}(i)
	}
	wg.Wait()
}

func TestTranslationRoundTripProperty(t *testing.T) {
	// Property: applying SNAT then the inverse restores the flow (gateway
	// symmetry the splice layer depends on for the reverse path).
	f := func(srcPort uint16, gwOct uint8) bool {
		if srcPort == 0 {
			return true
		}
		orig := netsim.Flow{
			Net:     netsim.InstanceNet,
			SrcIP:   "10.0.0.1",
			SrcPort: int(srcPort),
			DstIP:   "10.0.0.100",
			DstPort: 3260,
		}
		gw := fmt.Sprintf("192.168.0.%d", gwOct)
		masq := Action{SNATIP: gw}.Apply(orig)
		if masq.SrcPort != orig.SrcPort {
			return false
		}
		restored := Action{SNATIP: orig.SrcIP}.Apply(masq)
		return restored == orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustAdd(t *testing.T, tbl *Table, r *Rule) {
	t.Helper()
	if err := tbl.Add(r); err != nil {
		t.Fatalf("Add(%v): %v", r, err)
	}
}

package vswitch

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
)

func storageFlow() netsim.Flow {
	return netsim.Flow{
		Net:     netsim.InstanceNet,
		SrcIP:   "192.168.0.10",
		SrcPort: 40001,
		DstIP:   "192.168.0.20",
		DstPort: 3260,
	}
}

func TestMatchSemantics(t *testing.T) {
	f := storageFlow()
	tests := []struct {
		name    string
		give    Match
		station string
		want    bool
	}{
		{"wildcard", Match{}, "any", true},
		{"four tuple", Match{SrcIP: f.SrcIP, SrcPort: f.SrcPort, DstIP: f.DstIP, DstPort: f.DstPort}, "", true},
		{"from station", Match{FromStation: "mb1"}, "mb1", true},
		{"wrong station", Match{FromStation: "mb1"}, "mb2", false},
		{"wrong src port", Match{SrcPort: 1}, "", false},
		{"wrong dst", Match{DstIP: "1.2.3.4"}, "", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Matches(f, tt.station); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSwitchPriorityAndCounters(t *testing.T) {
	s := New("compute1")
	mustInstall(t, s, &Rule{ID: "catchall", Priority: 0, Match: Match{},
		Action: Action{Mode: ModeForward, Station: "default"}})
	mustInstall(t, s, &Rule{ID: "steer", Priority: 100, Match: Match{DstPort: 3260},
		Action: Action{Mode: ModeForward, Station: "mb1", Host: "host4"}})

	r := s.Lookup(storageFlow(), "")
	if r == nil || r.ID != "steer" {
		t.Fatalf("Lookup = %v, want steer rule", r)
	}
	other := storageFlow()
	other.DstPort = 80
	if r := s.Lookup(other, ""); r == nil || r.ID != "catchall" {
		t.Errorf("Lookup(other) = %v, want catchall", r)
	}
}

func TestSwitchChainByStation(t *testing.T) {
	// The Figure 3 pattern: first rule matches traffic from the gateway and
	// steers to MB1; the second matches traffic from MB1 and steers to MB2.
	s := New("h")
	mustInstall(t, s, &Rule{ID: "c1", Priority: 10,
		Match:  Match{DstPort: 3260, FromStation: "ingress"},
		Action: Action{Mode: ModeForward, Station: "mb1", Host: "h4"}})
	mustInstall(t, s, &Rule{ID: "c2", Priority: 10,
		Match:  Match{DstPort: 3260, FromStation: "mb1"},
		Action: Action{Mode: ModeForward, Station: "mb2", Host: "h5"}})

	f := storageFlow()
	if r := s.Lookup(f, "ingress"); r == nil || r.Action.Station != "mb1" {
		t.Errorf("from ingress: %v, want steer to mb1", r)
	}
	if r := s.Lookup(f, "mb1"); r == nil || r.Action.Station != "mb2" {
		t.Errorf("from mb1: %v, want steer to mb2", r)
	}
	if r := s.Lookup(f, "mb2"); r != nil {
		t.Errorf("from mb2: %v, want normal forwarding (nil)", r)
	}
}

// TestSwitchRemove: removing one rule by its whole ID (RemovePrefix with
// the ID) leaves no match, and removing it again is a no-op.
func TestSwitchRemove(t *testing.T) {
	s := New("h")
	mustInstall(t, s, &Rule{ID: "a", Match: Match{}})
	s.RemovePrefix("a")
	if n := len(s.Rules()); n != 0 {
		t.Errorf("%d rules after removal", n)
	}
	s.RemovePrefix("a") // no-op
	if r := s.Lookup(storageFlow(), ""); r != nil {
		t.Error("removed rule still matches")
	}
}

func TestSwitchRemovePrefix(t *testing.T) {
	s := New("h")
	mustInstall(t, s, &Rule{ID: "chain1/hop0", Match: Match{}})
	mustInstall(t, s, &Rule{ID: "chain1/hop1", Match: Match{}})
	mustInstall(t, s, &Rule{ID: "chain2/hop0", Match: Match{}})
	s.RemovePrefix("chain1/")
	if n := len(s.Rules()); n != 1 {
		t.Fatalf("%d rules, want 1", n)
	}
	if s.Rules()[0].ID != "chain2/hop0" {
		t.Errorf("surviving rule = %v", s.Rules()[0])
	}
}

func TestSwitchDuplicateAndEmptyID(t *testing.T) {
	s := New("h")
	mustInstall(t, s, &Rule{ID: "a", Match: Match{}})
	if err := s.Install(&Rule{ID: "a", Match: Match{}}); err == nil {
		t.Error("duplicate ID: want error")
	}
	if err := s.Install(&Rule{Match: Match{}}); err == nil {
		t.Error("empty ID: want error")
	}
}

func TestSwitchTieBreakByInsertion(t *testing.T) {
	s := New("h")
	mustInstall(t, s, &Rule{ID: "first", Priority: 7, Match: Match{}, Action: Action{Station: "x"}})
	mustInstall(t, s, &Rule{ID: "second", Priority: 7, Match: Match{}, Action: Action{Station: "y"}})
	if r := s.Lookup(storageFlow(), ""); r.ID != "first" {
		t.Errorf("tie broken to %q, want first", r.ID)
	}
}

func TestSwitchConcurrency(t *testing.T) {
	s := New("h")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := string(rune('a'+g)) + "-rule"
				_ = s.Install(&Rule{ID: id, Match: Match{}})
				s.Lookup(storageFlow(), "")
				s.RemovePrefix(id)
			}
		}(g)
	}
	wg.Wait()
}

// TestLookupAllocFree gates the tentpole property: the per-packet Lookup
// path performs zero heap allocations, for both exact-index hits and
// wildcard-scan hits, on a table big enough that the old copy-the-slice
// implementation would have allocated every call.
func TestLookupAllocFree(t *testing.T) {
	s := New("h")
	for i := 0; i < 200; i++ {
		mustInstall(t, s, &Rule{
			ID: fmt.Sprintf("chain%d/hop0", i), Priority: 100,
			Match:  Match{DstIP: fmt.Sprintf("192.168.1.%d", i), DstPort: 3260, FromStation: "ingress"},
			Action: Action{Mode: ModeForward, Station: "mb"},
		})
	}
	mustInstall(t, s, &Rule{
		ID: "exact", Priority: 100,
		Match:  Match{SrcIP: "192.168.0.10", SrcPort: 40001, DstIP: "192.168.0.20", DstPort: 3260, FromStation: "ingress"},
		Action: Action{Mode: ModeForward, Station: "mbX"},
	})
	f := storageFlow()
	cases := map[string]func(){
		"exact": func() { s.Lookup(f, "ingress") },
		"wildcard": func() {
			s.Lookup(netsim.Flow{Net: netsim.InstanceNet, SrcIP: "10.9.9.9", SrcPort: 7, DstIP: "192.168.1.7", DstPort: 3260}, "ingress")
		},
		"miss": func() { s.Lookup(f, "nowhere") },
	}
	for name, fn := range cases {
		fn() // warm up
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("Lookup(%s) allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// linearSwitch is the pre-RCU reference implementation: a mutex-guarded
// prioritized slice scanned front to back. The randomized equivalence test
// drives it in lockstep with the indexed Switch.
type linearSwitch struct {
	rules []*Rule
	order map[string]int
	seq   int
}

func (l *linearSwitch) install(r *Rule) {
	l.order[r.ID] = l.seq
	l.seq++
	l.rules = append(l.rules, r)
	sort.SliceStable(l.rules, func(i, j int) bool {
		if l.rules[i].Priority != l.rules[j].Priority {
			return l.rules[i].Priority > l.rules[j].Priority
		}
		return l.order[l.rules[i].ID] < l.order[l.rules[j].ID]
	})
}

func (l *linearSwitch) remove(id string) {
	for i, r := range l.rules {
		if r.ID == id {
			l.rules = append(l.rules[:i], l.rules[i+1:]...)
			delete(l.order, id)
			return
		}
	}
}

func (l *linearSwitch) removePrefix(prefix string) {
	kept := l.rules[:0]
	for _, r := range l.rules {
		if strings.HasPrefix(r.ID, prefix) {
			delete(l.order, r.ID)
			continue
		}
		kept = append(kept, r)
	}
	l.rules = kept
}

func (l *linearSwitch) lookup(f netsim.Flow, station string) *Rule {
	for _, r := range l.rules {
		if r.Match.Matches(f, station) {
			return r
		}
	}
	return nil
}

// TestLookupEquivalenceRandomized brute-forces the indexed snapshot table
// against the old linear scan: random interleaved Install/Remove/
// RemovePrefix mutations, each followed by lookups of every key in a small
// universe (so exact hits, wildcard hits, shadowing, and misses all occur),
// asserting both implementations always pick the same rule.
func TestLookupEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ips := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", ""}
	ports := []int{0, 3260, 40001}
	stations := []string{"", "ingress", "mb1", "mb2"}

	randMatch := func() Match {
		return Match{
			SrcIP:       ips[rng.Intn(len(ips))],
			SrcPort:     ports[rng.Intn(len(ports))],
			DstIP:       ips[rng.Intn(len(ips))],
			DstPort:     ports[rng.Intn(len(ports))],
			FromStation: stations[rng.Intn(len(stations))],
		}
	}
	checkAll := func(step int, s *Switch, l *linearSwitch) {
		t.Helper()
		for _, si := range ips[:3] {
			for _, sp := range ports[1:] {
				for _, di := range ips[:3] {
					for _, st := range stations {
						f := netsim.Flow{SrcIP: si, SrcPort: sp, DstIP: di, DstPort: 3260}
						got, want := s.Lookup(f, st), l.lookup(f, st)
						gotID, wantID := "", ""
						if got != nil {
							gotID = got.ID
						}
						if want != nil {
							wantID = want.ID
						}
						if gotID != wantID {
							t.Fatalf("step %d: Lookup(%+v, %q) = %q, linear scan = %q", step, f, st, gotID, wantID)
						}
					}
				}
			}
		}
	}

	s := New("h")
	l := &linearSwitch{order: make(map[string]int)}
	live := make(map[string]bool)
	next := 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0: // install
			id := fmt.Sprintf("c%d/hop%d/", next%7, next) // no ID prefixes another
			next++
			m := randMatch()
			prio := rng.Intn(3) * 50
			mustInstall(t, s, &Rule{ID: id, Priority: prio, Match: m, Action: Action{Mode: ModeForward, Station: id}})
			l.install(&Rule{ID: id, Priority: prio, Match: m, Action: Action{Mode: ModeForward, Station: id}})
			live[id] = true
		case op < 9: // remove one
			for id := range live {
				s.RemovePrefix(id)
				l.remove(id)
				delete(live, id)
				break
			}
		default: // remove a whole chain prefix
			prefix := fmt.Sprintf("c%d/", rng.Intn(7))
			s.RemovePrefix(prefix)
			l.removePrefix(prefix)
			for id := range live {
				if strings.HasPrefix(id, prefix) {
					delete(live, id)
				}
			}
		}
		if n := len(s.Rules()); n != len(l.rules) {
			t.Fatalf("step %d: %d rules, linear = %d", step, n, len(l.rules))
		}
		checkAll(step, s, l)
	}
}

func TestModeString(t *testing.T) {
	if ModeForward.String() != "forward" || ModeTerminate.String() != "terminate" {
		t.Error("Mode.String wrong")
	}
	if Mode(0).String() != "mode(?)" {
		t.Error("unknown mode String wrong")
	}
}

func mustInstall(t *testing.T, s *Switch, r *Rule) {
	t.Helper()
	if err := s.Install(r); err != nil {
		t.Fatalf("Install(%v): %v", r, err)
	}
}

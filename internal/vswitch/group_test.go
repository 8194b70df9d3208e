package vswitch

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/netsim"
)

func gm(station, host string) GroupMember {
	return GroupMember{Station: station, Host: host, TerminateAddr: netsim.Addr{Net: netsim.InstanceNet, IP: "192.168.10." + station, Port: 3260}}
}

func flowN(n int) netsim.Flow {
	return netsim.Flow{Net: netsim.InstanceNet, SrcIP: "192.168.20.1", SrcPort: 40000 + n, DstIP: "192.168.20.2", DstPort: 3260}
}

func TestGroupSelectIsSticky(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2")})
	f := flowN(1)
	m1, ok := g.Select(f)
	if !ok {
		t.Fatal("select failed")
	}
	for i := 0; i < 10; i++ {
		m, _ := g.Select(f)
		if m.Station != m1.Station {
			t.Fatalf("flow rebound from %s to %s", m1.Station, m.Station)
		}
	}
}

func TestGroupSpreadsNewFlows(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2"), gm("c", "h3"), gm("d", "h4")})
	for i := 0; i < 8; i++ {
		if _, ok := g.Select(flowN(i)); !ok {
			t.Fatal("select failed")
		}
	}
	for st, n := range load(g) {
		if n != 2 {
			t.Fatalf("least-loaded select should balance: member %s has %d of 8 flows (%v)", st, n, load(g))
		}
	}
}

func TestGroupScaleUpKeepsBindings(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1")})
	before := make(map[netsim.Flow]string)
	for i := 0; i < 4; i++ {
		m, _ := g.Select(flowN(i))
		before[flowN(i)] = m.Station
	}
	g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2")})
	for f, st := range before {
		m, _ := g.Select(f)
		if m.Station != st {
			t.Fatalf("scale-up remapped flow %v: %s -> %s", f, st, m.Station)
		}
	}
	// New flows land on the empty member.
	m, _ := g.Select(flowN(100))
	if m.Station != "b" {
		t.Fatalf("new flow should fill the new member, got %s", m.Station)
	}
}

func TestGroupDrainingExcludedFromNewFlows(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2")})
	g.SetDraining("a", true)
	for i := 0; i < 6; i++ {
		m, ok := g.Select(flowN(i))
		if !ok || m.Station != "b" {
			t.Fatalf("new flow %d selected draining member (got %v ok=%v)", i, m.Station, ok)
		}
	}
	if !g.Draining("a") {
		t.Fatal("drain mark lost")
	}
}

func TestGroupDrainRebindsOnReconnect(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2")})
	// Force a binding onto a, then drain a.
	var onA netsim.Flow
	for i := 0; ; i++ {
		f := flowN(i)
		m, _ := g.Select(f)
		if m.Station == "a" {
			onA = f
			break
		}
	}
	g.SetDraining("a", true)
	// A re-walk of the same flow (reconnect) must move off the draining
	// member, which refuses new sessions.
	m, ok := g.Select(onA)
	if !ok || m.Station != "b" {
		t.Fatalf("reconnecting flow stayed on draining member: %v ok=%v", m.Station, ok)
	}
}

func TestGroupAllDrainingStillServes(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1")})
	g.SetDraining("a", true)
	if _, ok := g.Select(flowN(1)); !ok {
		t.Fatal("group with only draining members must still resolve rather than black-hole")
	}
}

func TestGroupRemoveMemberPrunesBindings(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2")})
	f := flowN(1)
	m, _ := g.Select(f)
	other := "a"
	if m.Station == "a" {
		other = "b"
	}
	g.SetMembers([]GroupMember{gm(other, "hx")})
	got, ok := g.Select(f)
	if !ok || got.Station != other {
		t.Fatalf("flow of removed member should rebind to %s, got %v ok=%v", other, got.Station, ok)
	}
	g.mu.Lock()
	_, bound := g.bindings[flowN(2)]
	g.mu.Unlock()
	if bound {
		t.Fatal("unknown flow reported bound")
	}
}

func TestGroupEmpty(t *testing.T) {
	g := NewGroup()
	if _, ok := g.Select(flowN(1)); ok {
		t.Fatal("empty group resolved a member")
	}
}

func TestGroupConcurrentSelect(t *testing.T) {
	g := NewGroup()
	g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2"), gm("c", "h3")})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := flowN(w)
			first, ok := g.Select(f)
			if !ok {
				errs <- fmt.Errorf("select failed")
				return
			}
			for i := 0; i < 200; i++ {
				m, _ := g.Select(f)
				if m.Station != first.Station {
					errs <- fmt.Errorf("flow %d moved %s -> %s", w, first.Station, m.Station)
					return
				}
				if i == 50 && w == 0 {
					g.SetMembers([]GroupMember{gm("a", "h1"), gm("b", "h2"), gm("c", "h3"), gm("d", "h4")})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// load is the number of bound flows per member station.
func load(g *Group) map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.loadLocked()
}

package sdn

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/vswitch"
)

func groupMB(name string, insts ...Instance) MBSpec {
	return MBSpec{Name: name, Mode: vswitch.ModeTerminate, Instances: insts}
}

func inst(name, host string, port int) Instance {
	return Instance{Name: name, Host: host,
		RelayAddr: netsim.Addr{Net: netsim.InstanceNet, IP: "192.168.10." + name, Port: port}}
}

func flowPort(port int) netsim.Flow {
	f := testFlow()
	f.SrcPort = port
	return f
}

func TestGroupChainWalkAffinity(t *testing.T) {
	c := NewController()
	g := groupMB("grp", inst("i0", "h4", 3260), inst("i1", "h5", 3260))
	if err := c.InstallChain(chain("c", g)); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	// Distinct flows spread across instances; each flow is sticky.
	first := make(map[int]string)
	for port := 40001; port <= 40004; port++ {
		steps := c.Walk(flowPort(port), "gwhost", IngressStation)
		if len(steps) != 1 || steps[0].MB.Mode != vswitch.ModeTerminate {
			t.Fatalf("walk(%d) = %+v", port, steps)
		}
		first[port] = steps[0].MB.Name
		if steps[0].MB.RelayAddr.IsZero() {
			t.Fatalf("group step missing relay addr: %+v", steps[0])
		}
	}
	seen := map[string]int{}
	for _, name := range first {
		seen[name]++
	}
	if len(seen) != 2 || seen["i0"] != 2 || seen["i1"] != 2 {
		t.Fatalf("4 flows should split 2/2 across instances, got %v", seen)
	}
	for port, want := range first {
		steps := c.Walk(flowPort(port), "gwhost", IngressStation)
		if steps[0].MB.Name != want {
			t.Fatalf("flow %d moved %s -> %s", port, want, steps[0].MB.Name)
		}
	}
}

func TestGroupChainResumesFromMemberStation(t *testing.T) {
	c := NewController()
	g := groupMB("grp", inst("i0", "h4", 3260), inst("i1", "h5", 3260))
	if err := c.InstallChain(chain("c", g, fwdMB("tail", "h6"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	steps := c.Walk(flowPort(40001), "gwhost", IngressStation)
	if len(steps) != 1 {
		t.Fatalf("walk = %+v, want stop at terminating member", steps)
	}
	member := steps[0].MB
	// The member relay's onward dial resumes the walk from its own station.
	rest := c.Walk(flowPort(40001), member.Host, member.Name)
	if len(rest) != 1 || rest[0].MB.Name != "tail" {
		t.Fatalf("resumed walk from %s = %+v, want [tail]", member.Name, rest)
	}
}

func TestGroupScaleEventKeepsBindings(t *testing.T) {
	c := NewController()
	g2 := groupMB("grp", inst("i0", "h4", 3260), inst("i1", "h5", 3260))
	if err := c.InstallChain(chain("c", g2)); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	before := make(map[int]string)
	for port := 40001; port <= 40004; port++ {
		before[port] = c.Walk(flowPort(port), "gwhost", IngressStation)[0].MB.Name
	}
	// Scale 2 -> 3 through UpdateChain: same group name, one more instance.
	g3 := groupMB("grp", inst("i0", "h4", 3260), inst("i1", "h5", 3260), inst("i2", "h6", 3260))
	if err := c.UpdateChain("c", []MBSpec{g3}); err != nil {
		t.Fatalf("UpdateChain: %v", err)
	}
	for port, want := range before {
		got := c.Walk(flowPort(port), "gwhost", IngressStation)[0].MB.Name
		if got != want {
			t.Fatalf("scale event remapped flow %d: %s -> %s", port, want, got)
		}
	}
	// New flows fill the new instance first.
	if got := c.Walk(flowPort(49000), "gwhost", IngressStation)[0].MB.Name; got != "i2" {
		t.Fatalf("new flow after scale-up = %s, want i2", got)
	}
	if c.Group("grp") == nil {
		t.Fatal("Group accessor lost the live group")
	}
}

func TestGroupSharedAcrossChains(t *testing.T) {
	c := NewController()
	g := func() MBSpec { return groupMB("grp", inst("i0", "h4", 3260), inst("i1", "h5", 3260)) }
	if err := c.InstallChain(chain("c1", g())); err != nil {
		t.Fatalf("InstallChain c1: %v", err)
	}
	sel2 := vswitch.Match{DstIP: "192.168.0.30", DstPort: 3260}
	if err := c.InstallChain(&Chain{ID: "c2", Selector: sel2, IngressHost: "gwhost", MBs: []MBSpec{g()}}); err != nil {
		t.Fatalf("InstallChain c2: %v", err)
	}
	// The group survives the removal of one referencing chain...
	c.RemoveChain("c1")
	if c.Group("grp") == nil {
		t.Fatal("group dropped while chain c2 still references it")
	}
	// ...and is reclaimed with the last one.
	c.RemoveChain("c2")
	if c.Group("grp") != nil {
		t.Fatal("group leaked after every referencing chain was removed")
	}
}

// TestUpdateChainRollbackRestoresPreviousChain is the regression test for
// the rollback bug: a failed reinstall used to leave the chain registered
// with the new middle-box list and zero installed rules.
func TestUpdateChainRollbackRestoresPreviousChain(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(chain("c", fwdMB("mb1", "h4"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	// Duplicate instance names make the following hop install duplicate
	// rule IDs on the same switch, failing partway through the reinstall.
	bad := []MBSpec{
		{Name: "grp", Mode: vswitch.ModeForward, Instances: []Instance{
			{Name: "dup", Host: "h7"}, {Name: "dup", Host: "h7"},
		}},
		fwdMB("tail", "h8"),
	}
	if err := c.UpdateChain("c", bad); err == nil {
		t.Fatal("UpdateChain with duplicate instance stations: want error")
	}
	got := installed(c, "c")
	if got == nil {
		t.Fatal("chain deregistered by failed update")
	}
	if len(got.MBs) != 1 || got.MBs[0].Name != "mb1" {
		t.Fatalf("chain MBs after failed update = %+v, want previous [mb1]", got.MBs)
	}
	steps := c.Walk(testFlow(), "gwhost", IngressStation)
	if len(steps) != 1 || steps[0].MB.Name != "mb1" {
		t.Fatalf("walk after failed update = %+v, want previous path [mb1]", steps)
	}
	// No partial rules of the failed configuration remain anywhere.
	for _, host := range []string{"gwhost", "h4", "h7", "h8"} {
		for _, r := range c.SwitchFor(host).Rules() {
			if r.Action.Station == "grp" || r.Action.Station == "tail" || r.Action.Station == "dup" {
				t.Fatalf("stale rule from failed update on %s: %v", host, r)
			}
		}
	}
}

// TestWalkIsReadConsistentUnderUpdate drives concurrent Walk and
// UpdateChain (run with -race): every observed path must be entirely one
// chain configuration, never a half-old/half-new mix.
func TestWalkIsReadConsistentUnderUpdate(t *testing.T) {
	c := NewController()
	cfgA := []MBSpec{fwdMB("a1", "h1"), fwdMB("a2", "h2")}
	cfgB := []MBSpec{fwdMB("b1", "h3"), fwdMB("b2", "h4")}
	if err := c.InstallChain(chain("c", cfgA...)); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				steps := c.Walk(testFlow(), "gwhost", IngressStation)
				if len(steps) != 2 {
					errs <- fmt.Errorf("walk saw %d steps, want 2: %+v", len(steps), steps)
					return
				}
				names := steps[0].MB.Name + "," + steps[1].MB.Name
				if names != "a1,a2" && names != "b1,b2" {
					errs <- fmt.Errorf("mixed-generation walk: %s", names)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			cfg := cfgA
			if i%2 == 0 {
				cfg = cfgB
			}
			if err := c.UpdateChain("c", cfg); err != nil {
				errs <- fmt.Errorf("UpdateChain: %w", err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

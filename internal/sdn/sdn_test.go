package sdn

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/vswitch"
)

func testFlow() netsim.Flow {
	return netsim.Flow{
		Net:     netsim.InstanceNet,
		SrcIP:   "192.168.0.10", // ingress gateway (masqueraded)
		SrcPort: 40001,
		DstIP:   "192.168.0.20", // egress gateway
		DstPort: 3260,
	}
}

func selector() vswitch.Match {
	return vswitch.Match{DstIP: "192.168.0.20", DstPort: 3260}
}

func chain(id string, mbs ...MBSpec) *Chain {
	return &Chain{ID: id, Selector: selector(), IngressHost: "gwhost", MBs: mbs}
}

func fwdMB(name, host string) MBSpec {
	return MBSpec{Name: name, Host: host, Mode: vswitch.ModeForward}
}

func termMB(name, host string, port int) MBSpec {
	return MBSpec{Name: name, Host: host, Mode: vswitch.ModeTerminate,
		RelayAddr: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.50", Port: port}}
}

func TestInstallAndWalkForwardChain(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(chain("t1/vol1", fwdMB("mb1", "h4"), fwdMB("mb2", "h5"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	steps := c.Walk(testFlow(), "gwhost", IngressStation)
	if len(steps) != 2 {
		t.Fatalf("Walk returned %d steps, want 2", len(steps))
	}
	if steps[0].MB.Name != "mb1" || steps[0].MB.Host != "h4" {
		t.Errorf("step 0 = %+v", steps[0])
	}
	if steps[1].MB.Name != "mb2" || steps[1].MB.Host != "h5" {
		t.Errorf("step 1 = %+v", steps[1])
	}
}

func TestWalkStopsAtTerminator(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(chain("t1/vol1",
		fwdMB("mb1", "h4"), termMB("mb2", "h5", 13260), fwdMB("mb3", "h6"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	steps := c.Walk(testFlow(), "gwhost", IngressStation)
	if len(steps) != 2 {
		t.Fatalf("Walk returned %d steps, want 2 (stop at terminator)", len(steps))
	}
	if steps[1].MB.Mode != vswitch.ModeTerminate || steps[1].MB.RelayAddr.Port != 13260 {
		t.Errorf("terminator step = %+v", steps[1])
	}
	// Resuming the walk from the terminator (as the relay's onward dial
	// does) picks up the rest of the chain.
	rest := c.Walk(testFlow(), "h5", "mb2")
	if len(rest) != 1 || rest[0].MB.Name != "mb3" {
		t.Errorf("resumed walk = %+v, want [mb3]", rest)
	}
}

func TestWalkNoChain(t *testing.T) {
	c := NewController()
	if steps := c.Walk(testFlow(), "gwhost", IngressStation); steps != nil {
		t.Errorf("Walk with no chain = %v, want nil", steps)
	}
}

func TestWalkSelectorMismatch(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(chain("c", fwdMB("mb1", "h4"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	other := testFlow()
	other.DstIP = "192.168.0.99"
	if steps := c.Walk(other, "gwhost", IngressStation); steps != nil {
		t.Errorf("Walk with mismatched selector = %v, want nil", steps)
	}
}

func TestRemoveChain(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(chain("c", fwdMB("mb1", "h4"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	c.RemoveChain("c")
	if steps := c.Walk(testFlow(), "gwhost", IngressStation); steps != nil {
		t.Errorf("Walk after RemoveChain = %v, want nil", steps)
	}
	if installed(c, "c") != nil {
		t.Error("Chain still registered after RemoveChain")
	}
	c.RemoveChain("c") // no-op
}

func TestUpdateChainAddsAndRemovesMBs(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(chain("c", fwdMB("mb1", "h4"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	// Scale up: add a second middle-box.
	if err := c.UpdateChain("c", []MBSpec{fwdMB("mb1", "h4"), fwdMB("mb2", "h5")}); err != nil {
		t.Fatalf("UpdateChain: %v", err)
	}
	steps := c.Walk(testFlow(), "gwhost", IngressStation)
	if len(steps) != 2 {
		t.Fatalf("after scale-up Walk = %d steps, want 2", len(steps))
	}
	// Scale down: drop the first.
	if err := c.UpdateChain("c", []MBSpec{fwdMB("mb2", "h5")}); err != nil {
		t.Fatalf("UpdateChain: %v", err)
	}
	steps = c.Walk(testFlow(), "gwhost", IngressStation)
	if len(steps) != 1 || steps[0].MB.Name != "mb2" {
		t.Errorf("after scale-down Walk = %+v, want [mb2]", steps)
	}
}

func TestUpdateChainUnknown(t *testing.T) {
	c := NewController()
	if err := c.UpdateChain("nope", nil); err == nil {
		t.Error("UpdateChain on unknown chain: want error")
	}
}

func TestInstallChainValidation(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(&Chain{Selector: selector(), IngressHost: "h"}); err == nil {
		t.Error("missing ID: want error")
	}
	if err := c.InstallChain(&Chain{ID: "x", Selector: selector()}); err == nil {
		t.Error("missing ingress host: want error")
	}
	if err := c.InstallChain(chain("y", MBSpec{Name: "", Host: "h"})); err == nil {
		t.Error("missing MB name: want error")
	}
	if err := c.InstallChain(chain("z", MBSpec{Name: "m", Host: "h", Mode: vswitch.ModeTerminate})); err == nil {
		t.Error("terminator without relay addr: want error")
	}
}

func TestInstallChainDuplicate(t *testing.T) {
	c := NewController()
	if err := c.InstallChain(chain("c", fwdMB("mb1", "h4"))); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	if err := c.InstallChain(chain("c", fwdMB("mb2", "h5"))); err == nil {
		t.Error("duplicate chain ID: want error")
	}
}

func TestTwoChainsAreIndependent(t *testing.T) {
	c := NewController()
	sel2 := vswitch.Match{DstIP: "192.168.0.30", DstPort: 3260}
	if err := c.InstallChain(chain("c1", fwdMB("mb1", "h4"))); err != nil {
		t.Fatalf("InstallChain c1: %v", err)
	}
	if err := c.InstallChain(&Chain{ID: "c2", Selector: sel2, IngressHost: "gwhost",
		MBs: []MBSpec{fwdMB("mb9", "h9")}}); err != nil {
		t.Fatalf("InstallChain c2: %v", err)
	}
	f2 := testFlow()
	f2.DstIP = "192.168.0.30"
	s1 := c.Walk(testFlow(), "gwhost", IngressStation)
	s2 := c.Walk(f2, "gwhost", IngressStation)
	if len(s1) != 1 || s1[0].MB.Name != "mb1" {
		t.Errorf("chain1 walk = %+v", s1)
	}
	if len(s2) != 1 || s2[0].MB.Name != "mb9" {
		t.Errorf("chain2 walk = %+v", s2)
	}
	c.RemoveChain("c1")
	if s2 := c.Walk(f2, "gwhost", IngressStation); len(s2) != 1 {
		t.Error("removing chain1 disturbed chain2")
	}
}

func TestChainCopySemantics(t *testing.T) {
	c := NewController()
	orig := chain("c", fwdMB("mb1", "h4"))
	if err := c.InstallChain(orig); err != nil {
		t.Fatalf("InstallChain: %v", err)
	}
	orig.MBs[0].Name = "tampered"
	if installed(c, "c").MBs[0].Name != "mb1" {
		t.Error("InstallChain aliases caller slice")
	}
}

// installed is the controller's chain id, or nil.
func installed(c *Controller, id string) *Chain {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.chains[id]
}

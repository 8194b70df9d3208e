package splice

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sdn"
	"repro/internal/target"
	"repro/internal/vswitch"
)

const volIQN = "iqn.2016-04.edu.purdue.storm:vol1"

// testbed is the Figure 1 topology: compute host (VM), gateway host,
// middle-box host, storage host.
type testbed struct {
	fabric  *netsim.Fabric
	plane   *Plane
	vm      *netsim.Endpoint
	gwHost  *netsim.Host
	mbHost  *netsim.Host
	stHost  *netsim.Host
	srv     *target.Server
	dev     *blockdev.MemDisk
	targets netsim.Addr
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	model := netsim.Model{
		MTU:       8 * 1024,
		Bandwidth: 1 << 32,
		Latency:   map[netsim.HopKind]time.Duration{},
		PerPacket: map[netsim.HopKind]time.Duration{},
	}
	fabric := netsim.NewFabric(model)
	compute, err := fabric.AddHost("compute1", map[netsim.Network]string{
		netsim.StorageNet: "10.0.0.1", netsim.InstanceNet: "192.168.0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	gwHost, err := fabric.AddHost("gw1", map[netsim.Network]string{
		netsim.StorageNet: "10.0.0.2", netsim.InstanceNet: "192.168.0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
	mbHost, err := fabric.AddHost("mbhost1", map[netsim.Network]string{
		netsim.StorageNet: "10.0.0.3", netsim.InstanceNet: "192.168.0.3",
	})
	if err != nil {
		t.Fatal(err)
	}
	stHost, err := fabric.AddHost("storage1", map[netsim.Network]string{
		netsim.StorageNet: "10.0.0.100",
	})
	if err != nil {
		t.Fatal(err)
	}

	plane := NewPlane(fabric, sdn.NewController())

	vm, err := compute.NewGuest("vm1", "192.168.10.5")
	if err != nil {
		t.Fatal(err)
	}

	dev, err := blockdev.NewMemDisk(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	srv := target.NewServer(target.WithLoginHook(func(info target.LoginInfo) {
		plane.Attributions().RecordLogin(info.TargetIQN, info.SourcePort)
	}))
	if err := srv.AddTarget(volIQN, dev); err != nil {
		t.Fatal(err)
	}
	tgtEP := stHost.NewEndpoint("tgtd")
	ln, err := tgtEP.Listen(netsim.StorageNet, 3260)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)

	return &testbed{
		fabric: fabric, plane: plane, vm: vm,
		gwHost: gwHost, mbHost: mbHost, stHost: stHost,
		srv: srv, dev: dev,
		targets: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
	}
}

func (tb *testbed) deployment(chain ...sdn.MBSpec) *Deployment {
	return &Deployment{
		ID:        "tenantA/vol1",
		VM:        "vm1",
		VMHost:    "compute1",
		VolumeIQN: volIQN,
		TargetAddr: netsim.Addr{
			Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260,
		},
		Ingress: GatewaySpec{Name: "gw-in", Host: "gw1", InstanceIP: "192.168.0.10"},
		Egress:  GatewaySpec{Name: "gw-out", Host: "gw1", InstanceIP: "192.168.0.11"},
		Chain:   chain,
	}
}

// attach logs a session in through the plane's atomic attachment.
func (tb *testbed) attach(t *testing.T, d *Deployment) *initiator.Session {
	t.Helper()
	var sess *initiator.Session
	err := tb.plane.AtomicAttach(d, func() error {
		conn, err := tb.vm.DialAddr(d.TargetAddr)
		if err != nil {
			return err
		}
		s, err := initiator.Login(conn, initiator.Config{
			InitiatorIQN: "iqn.2016-04.edu.purdue.storm:vm1",
			TargetIQN:    volIQN,
			AttachedVM:   "vm1",
		})
		if err != nil {
			return err
		}
		sess = s
		return nil
	})
	if err != nil {
		t.Fatalf("AtomicAttach: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	tb.plane.Attributions().RecordAttachment(d.VM, d.VolumeIQN)
	return sess
}

func TestLegacyDirectPath(t *testing.T) {
	tb := newTestbed(t)
	// Without any deployment/capture rule, the VM talks straight to the
	// target over the storage network.
	conn, err := tb.vm.DialAddr(tb.targets)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	sess, err := initiator.Login(conn, initiator.Config{
		InitiatorIQN: "iqn.x", TargetIQN: volIQN,
	})
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	defer sess.Close()
	want := bytes.Repeat([]byte{7}, 1024)
	if err := sess.Write(0, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(0, 2, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("legacy path corrupted data")
	}
	// Direct route must not traverse the gateway host.
	for _, h := range conn.Route().Hops {
		if h.Host == "gw1" || h.Host == "mbhost1" {
			t.Errorf("legacy route crosses %s", h.Host)
		}
	}
}

func TestSplicedPathThroughForwardMB(t *testing.T) {
	tb := newTestbed(t)
	d := tb.deployment(sdn.MBSpec{Name: "mb1", Host: "mbhost1", Mode: vswitch.ModeForward})
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sess := tb.attach(t, d)

	want := bytes.Repeat([]byte{0xEE}, 2048)
	if err := sess.Write(16, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(16, 4, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("spliced path corrupted data")
	}

	// The route must traverse gateway and middle-box hosts.
	route := sess.Conn().(*netsim.Conn).Route()
	seen := map[string]bool{}
	var forwardHops int
	for _, h := range route.Hops {
		seen[h.Host] = true
		if h.Kind == netsim.HopForward {
			forwardHops++
		}
	}
	if !seen["gw1"] || !seen["mbhost1"] {
		t.Errorf("route misses gateway or MB host: %+v", route.Hops)
	}
	// Ingress gateway + MB kernel forward + egress gateway.
	if forwardHops < 3 {
		t.Errorf("route has %d forward hops, want >= 3", forwardHops)
	}
	// The target must see the egress gateway's storage IP as the source.
	if route.SrcAsSeen.IP != "10.0.0.2" {
		t.Errorf("SrcAsSeen = %v, want egress host storage IP", route.SrcAsSeen)
	}
}

func TestAttributionAssembled(t *testing.T) {
	tb := newTestbed(t)
	d := tb.deployment()
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sess := tb.attach(t, d)
	defer sess.Close()
	// The target runs its login hook before it sends the login response, so
	// the binding is whole by the time Login returns.
	b, ok := tb.plane.Attributions().ByIQN(volIQN)
	if !ok || b.SourcePort == 0 {
		t.Fatalf("binding after Login = %+v, %v: source port not yet attributed", b, ok)
	}
	if b.VM != "vm1" {
		t.Errorf("binding VM = %q, want vm1", b.VM)
	}
	if b.VolumeIQN != volIQN {
		t.Errorf("binding IQN = %q, want %q", b.VolumeIQN, volIQN)
	}
}

func TestCaptureRuleRemovedAfterAttach(t *testing.T) {
	tb := newTestbed(t)
	d := tb.deployment()
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sess := tb.attach(t, d)
	defer sess.Close()
	if n := tb.plane.HostNAT("compute1").Len(); n != 0 {
		t.Errorf("%d NAT rules remain after attach, want 0", n)
	}
	// A new dial now takes the legacy path (no capture).
	conn, err := tb.vm.DialAddr(tb.targets)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	for _, h := range conn.Route().Hops {
		if h.Host == "gw1" {
			t.Error("post-attach dial still routed through the gateway")
		}
	}
	// The established session keeps working through its spliced route.
	if err := sess.Flush(); err != nil {
		t.Errorf("established session broken after rule removal: %v", err)
	}
}

func TestIsolationBlocksTenantDialsToGateways(t *testing.T) {
	tb := newTestbed(t)
	d := tb.deployment()
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	_, err := tb.vm.Dial(netsim.InstanceNet, "192.168.0.10:3260")
	if !errors.Is(err, ErrIsolated) {
		t.Errorf("dial to ingress gateway: err = %v, want ErrIsolated", err)
	}
	_, err = tb.vm.Dial(netsim.InstanceNet, "192.168.0.11:3260")
	if !errors.Is(err, ErrIsolated) {
		t.Errorf("dial to egress gateway: err = %v, want ErrIsolated", err)
	}
}

func TestIsolationBlocksTenantDialsToMBs(t *testing.T) {
	tb := newTestbed(t)
	if err := tb.plane.RegisterMB(MBInfo{Name: "mb1", Host: "mbhost1", InstanceIP: "192.168.0.50"}); err != nil {
		t.Fatalf("RegisterMB: %v", err)
	}
	if _, err := tb.vm.Dial(netsim.InstanceNet, "192.168.0.50:13260"); !errors.Is(err, ErrIsolated) {
		t.Errorf("dial to MB: err = %v, want ErrIsolated", err)
	}
}

func TestUndeployRestoresLegacyRouting(t *testing.T) {
	tb := newTestbed(t)
	d := tb.deployment(sdn.MBSpec{Name: "mb1", Host: "mbhost1", Mode: vswitch.ModeForward})
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	tb.plane.Undeploy(d.ID)
	if tb.plane.Deployment(d.ID) != nil {
		t.Error("deployment still present after Undeploy")
	}
	// The gateway IPs are unprotected again.
	if tb.plane.isProtected("192.168.0.10") {
		t.Error("ingress IP still protected after Undeploy")
	}
}

func TestDeployValidation(t *testing.T) {
	tb := newTestbed(t)
	bad := tb.deployment()
	bad.ID = ""
	if err := tb.plane.Deploy(bad); err == nil {
		t.Error("missing ID: want error")
	}
	bad = tb.deployment()
	bad.Ingress.InstanceIP = ""
	if err := tb.plane.Deploy(bad); err == nil {
		t.Error("missing gateway IP: want error")
	}
	bad = tb.deployment()
	bad.TargetAddr = netsim.Addr{}
	if err := tb.plane.Deploy(bad); err == nil {
		t.Error("missing target: want error")
	}
	// Duplicate deployment and gateway IP conflicts.
	good := tb.deployment()
	if err := tb.plane.Deploy(good); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if err := tb.plane.Deploy(tb.deployment()); err == nil {
		t.Error("duplicate ID: want error")
	}
	conflict := tb.deployment()
	conflict.ID = "other"
	if err := tb.plane.Deploy(conflict); err == nil {
		t.Error("conflicting gateway IPs: want error")
	}
}

func TestConcurrentAttachDifferentVolumes(t *testing.T) {
	// Two volumes on the same compute host attach concurrently; the atomic
	// attach serializes the capture windows so each flow lands on its own
	// deployment's gateways.
	tb := newTestbed(t)
	dev2, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const vol2IQN = "iqn.2016-04.edu.purdue.storm:vol2"
	if err := tb.srv.AddTarget(vol2IQN, dev2); err != nil {
		t.Fatal(err)
	}

	d1 := tb.deployment()
	d2 := tb.deployment()
	d2.ID = "tenantA/vol2"
	d2.VolumeIQN = vol2IQN
	d2.Ingress = GatewaySpec{Name: "gw-in2", Host: "gw1", InstanceIP: "192.168.0.12"}
	d2.Egress = GatewaySpec{Name: "gw-out2", Host: "gw1", InstanceIP: "192.168.0.13"}
	if err := tb.plane.Deploy(d1); err != nil {
		t.Fatalf("Deploy d1: %v", err)
	}
	if err := tb.plane.Deploy(d2); err != nil {
		t.Fatalf("Deploy d2: %v", err)
	}

	type result struct {
		sess *initiator.Session
		err  error
	}
	results := make(chan result, 2)
	for _, d := range []*Deployment{d1, d2} {
		d := d
		go func() {
			var sess *initiator.Session
			err := tb.plane.AtomicAttach(d, func() error {
				conn, err := tb.vm.DialAddr(d.TargetAddr)
				if err != nil {
					return err
				}
				s, err := initiator.Login(conn, initiator.Config{
					InitiatorIQN: "iqn.vm1", TargetIQN: d.VolumeIQN,
				})
				if err != nil {
					return err
				}
				sess = s
				return nil
			})
			results <- result{sess, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent attach: %v", r.err)
		}
		if err := r.sess.Flush(); err != nil {
			t.Errorf("flush after concurrent attach: %v", err)
		}
		_ = r.sess.Close()
	}
}

func TestUpdateChainLiveScaling(t *testing.T) {
	tb := newTestbed(t)
	d := tb.deployment()
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sess := tb.attach(t, d)
	route1 := sess.Conn().(*netsim.Conn).Route()
	crossesMB := func(r *netsim.Route) bool {
		for _, h := range r.Hops {
			if h.Host == "mbhost1" {
				return true
			}
		}
		return false
	}
	if crossesMB(route1) {
		t.Error("empty chain route crosses the MB host")
	}
	// Add a middle-box on the live path; a re-attach picks it up.
	if err := tb.plane.UpdateChain(d.ID, []sdn.MBSpec{
		{Name: "mb1", Host: "mbhost1", Mode: vswitch.ModeForward},
	}); err != nil {
		t.Fatalf("UpdateChain: %v", err)
	}
	sess2 := tb.attach(t, d)
	route2 := sess2.Conn().(*netsim.Conn).Route()
	if !crossesMB(route2) {
		t.Error("updated chain route does not cross the MB host")
	}
	if err := sess2.Flush(); err != nil {
		t.Errorf("flush through updated chain: %v", err)
	}
}

// TestClosedConnectionReleasesGroupBinding: a connection's select-group
// binding lasts as long as the connection. Eight connections opened and
// closed on a one-member group leave it unloaded, so after a scale-out to
// two members the next two connections land on different members.
func TestClosedConnectionReleasesGroupBinding(t *testing.T) {
	tb := newTestbed(t)
	group := func(insts ...sdn.Instance) []sdn.MBSpec {
		return []sdn.MBSpec{{Name: "grp", Mode: vswitch.ModeForward, Instances: insts}}
	}
	a, b := sdn.Instance{Name: "a", Host: "mbhost1"}, sdn.Instance{Name: "b", Host: "gw1"}
	d := tb.deployment(group(a)...)
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := tb.attach(t, d).Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	if err := tb.plane.UpdateChain(d.ID, group(a, b)); err != nil {
		t.Fatalf("UpdateChain: %v", err)
	}
	members := map[string]bool{}
	for i := 0; i < 2; i++ {
		sess := tb.attach(t, d)
		defer sess.Close()
		for _, h := range sess.Conn().(*netsim.Conn).Route().Hops {
			if h.Stage == obs.StageMBForward {
				members[h.Host] = true
			}
		}
	}
	if len(members) != 2 {
		t.Fatalf("two connections after scale-out went through %v, want one per member", members)
	}
}

func TestRelayTerminationRouting(t *testing.T) {
	// A terminate-mode MB receives the connection with NextHop metadata;
	// its onward dial resumes the chain and reaches the target.
	tb := newTestbed(t)
	mbGuest, err := tb.mbHost.NewGuest("mb1", "192.168.0.50")
	if err != nil {
		t.Fatal(err)
	}
	relayAddr := netsim.Addr{Net: netsim.InstanceNet, IP: "192.168.0.50", Port: 13260}
	relayLn, err := mbGuest.ListenAddr(relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer relayLn.Close()
	if err := tb.plane.RegisterMB(MBInfo{Name: "mb1", Host: "mbhost1", InstanceIP: "192.168.0.50"}); err != nil {
		t.Fatal(err)
	}
	d := tb.deployment(sdn.MBSpec{
		Name: "mb1", Host: "mbhost1", Mode: vswitch.ModeTerminate, RelayAddr: relayAddr,
	})
	if err := tb.plane.Deploy(d); err != nil {
		t.Fatalf("Deploy: %v", err)
	}

	// Byte-splicing relay.
	go func() {
		c, err := relayLn.Accept()
		if err != nil {
			return
		}
		front := c.(*netsim.Conn)
		next := front.Route().NextHop
		back, err := mbGuest.DialAddr(next)
		if err != nil {
			t.Errorf("relay onward dial: %v", err)
			front.Close()
			return
		}
		go func() {
			_, _ = io.Copy(back, front)
			back.Close()
		}()
		_, _ = io.Copy(front, back)
		front.Close()
	}()

	sess := tb.attach(t, d)
	want := bytes.Repeat([]byte{0x5A}, 1024)
	if err := sess.Write(8, want, 512); err != nil {
		t.Fatalf("Write through relay: %v", err)
	}
	got, err := sess.Read(8, 2, 512)
	if err != nil {
		t.Fatalf("Read through relay: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("relay path corrupted data")
	}
	// Front connection terminates at the relay with gateway masquerading.
	route := sess.Conn().(*netsim.Conn).Route()
	if route.Terminate != relayAddr {
		t.Errorf("Terminate = %v, want relay", route.Terminate)
	}
	if route.SrcAsSeen.IP != "192.168.0.10" {
		t.Errorf("relay sees src %v, want ingress gateway IP", route.SrcAsSeen)
	}
	if route.NextHop.IP != "192.168.0.11" {
		t.Errorf("NextHop = %v, want egress gateway", route.NextHop)
	}
}

func TestAttributionsTable(t *testing.T) {
	a := NewAttributions()
	a.RecordAttachment("vm1", "iqn.vol1")
	if b, ok := a.ByIQN("iqn.vol1"); !ok || b.VM != "vm1" || b.SourcePort != 0 {
		t.Errorf("partial binding: %+v %v", b, ok)
	}
	a.RecordLogin("iqn.vol1", 40001)
	b, ok := a.ByIQN("iqn.vol1")
	if !ok || b.VM != "vm1" || b.SourcePort != 40001 {
		t.Errorf("binding = %+v", b)
	}
	// Re-login with a new port supersedes the old one.
	a.RecordLogin("iqn.vol1", 40002)
	if b, ok := a.ByIQN("iqn.vol1"); !ok || b.SourcePort != 40002 {
		t.Errorf("binding after re-login = %+v, %v", b, ok)
	}
	// Login before attachment also assembles.
	a.RecordLogin("iqn.vol2", 40010)
	a.RecordAttachment("vm2", "iqn.vol2")
	if b, ok := a.ByIQN("iqn.vol2"); !ok || b.VM != "vm2" || b.SourcePort != 40010 {
		t.Errorf("reverse-order binding = %+v", b)
	}
	a.RemoveAttachment("iqn.vol1")
	if _, ok := a.ByIQN("iqn.vol1"); ok {
		t.Error("binding survives RemoveAttachment")
	}
	a.RecordLogin("iqn.volX", 0) // ignored
	if _, ok := a.ByIQN("iqn.volX"); ok {
		t.Error("zero port login recorded")
	}
}

// TestAtomicAttachLockPruning churns attachments across many hosts and
// checks the per-host attach-lock registry drains back to empty — it must
// not grow one entry per VM host forever.
func TestAtomicAttachLockPruning(t *testing.T) {
	tb := newTestbed(t)

	// Sequential churn on one host.
	for i := 0; i < 50; i++ {
		d := tb.deployment()
		d.ID = fmt.Sprintf("seq%d/vol", i)
		if err := tb.plane.AtomicAttach(d, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent churn: several goroutines per host across several hosts, so
	// the refcount path (second arrival while the first still holds the lock)
	// is exercised under -race.
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				d := tb.deployment()
				d.ID = fmt.Sprintf("conc%d-%d/vol", g, j)
				d.VMHost = fmt.Sprintf("churnhost%d", g%4)
				if err := tb.plane.AtomicAttach(d, func() error { return nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	tb.plane.attachMu.Lock()
	n := len(tb.plane.attachLocks)
	tb.plane.attachMu.Unlock()
	if n != 0 {
		t.Fatalf("attach-lock registry leaked %d entries after churn", n)
	}
}

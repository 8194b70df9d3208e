package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// fastModel returns a model with negligible delays for functional tests.
func fastModel() Model {
	return Model{
		MTU:       8 * 1024,
		Bandwidth: 1 << 32,
		Latency:   map[HopKind]time.Duration{},
		PerPacket: map[HopKind]time.Duration{},
	}
}

// twoHostFabric builds storage+compute hosts with listeners for tests.
func twoHostFabric(t *testing.T, model Model) (*Fabric, *Host, *Host) {
	t.Helper()
	f := NewFabric(model)
	compute, err := f.AddHost("compute1", map[Network]string{
		StorageNet:  "10.0.0.1",
		InstanceNet: "192.168.0.1",
	})
	if err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	storage, err := f.AddHost("storage1", map[Network]string{
		StorageNet: "10.0.0.100",
	})
	if err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	return f, compute, storage
}

func TestParseHostPort(t *testing.T) {
	tests := []struct {
		give    string
		want    Addr
		wantErr bool
	}{
		{give: "10.0.0.1:3260", want: Addr{Net: StorageNet, IP: "10.0.0.1", Port: 3260}},
		{give: "noport", wantErr: true},
		{give: ":80", wantErr: true},
		{give: "h:notnum", wantErr: true},
		{give: "h:0", wantErr: true},
		{give: "h:70000", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseHostPort(StorageNet, tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseHostPort(%q): want error", tt.give)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseHostPort(%q): %v", tt.give, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseHostPort(%q) = %+v, want %+v", tt.give, got, tt.want)
		}
	}
}

func TestDialAndEcho(t *testing.T) {
	_, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("target")
	ln, err := tgt.Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if _, err := c.Write(bytes.ToUpper(buf)); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()

	vm := compute.NewEndpoint("vm-proc")
	conn, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(buf) != "HELLO" {
		t.Errorf("echo = %q, want HELLO", buf)
	}
	<-done
}

func TestDialRefused(t *testing.T) {
	f, compute, _ := twoHostFabric(t, fastModel())
	_ = f
	vm := compute.NewEndpoint("vm")
	if _, err := vm.Dial(StorageNet, "10.0.0.100:9999"); !errors.Is(err, ErrConnRefused) {
		t.Errorf("Dial to closed port: err = %v, want ErrConnRefused", err)
	}
	if _, err := vm.Dial(StorageNet, "10.9.9.9:1"); err == nil {
		t.Error("Dial to unknown host: want error")
	}
}

func TestDialNoNIC(t *testing.T) {
	f, _, storage := twoHostFabric(t, fastModel())
	_ = f
	// storage1 has no instance network NIC.
	ep := storage.NewEndpoint("p")
	if _, err := ep.Dial(InstanceNet, "192.168.0.1:80"); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Dial without NIC: err = %v, want ErrNoRoute", err)
	}
}

func TestListenConflict(t *testing.T) {
	_, compute, _ := twoHostFabric(t, fastModel())
	ep := compute.NewEndpoint("a")
	ln, err := ep.Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := ep.Listen(StorageNet, 3260); err == nil {
		t.Error("second Listen on same address: want error")
	}
	ln.Close()
	// After closing, the address is free again.
	ln2, err := ep.Listen(StorageNet, 3260)
	if err != nil {
		t.Errorf("Listen after Close: %v", err)
	} else {
		ln2.Close()
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	_, compute, _ := twoHostFabric(t, fastModel())
	ep := compute.NewEndpoint("a")
	ln, err := ep.Listen(StorageNet, 3000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	// Accept must end with ErrListenerClosed whichever of the two runs
	// first: blocked when Close lands, or called on a closed listener.
	errCh := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		errCh <- err
	}()
	ln.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrListenerClosed) {
			t.Errorf("Accept err = %v, want ErrListenerClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
	if _, err := ln.Accept(); !errors.Is(err, ErrListenerClosed) {
		t.Errorf("Accept after Close err = %v, want ErrListenerClosed", err)
	}
}

func TestUniqueEphemeralPorts(t *testing.T) {
	_, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("t")
	ln, err := tgt.Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	vm := compute.NewEndpoint("vm")
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
		if err != nil {
			t.Fatalf("Dial #%d: %v", i, err)
		}
		port := c.LocalAddr().(Addr).Port
		if seen[port] {
			t.Errorf("ephemeral port %d reused", port)
		}
		seen[port] = true
		c.Close()
	}
}

func TestGuestEndpointAddressing(t *testing.T) {
	f, compute, _ := twoHostFabric(t, fastModel())
	vm1, err := compute.NewGuest("vm1", "192.168.10.5")
	if err != nil {
		t.Fatalf("NewGuest: %v", err)
	}
	if vm1.IP(InstanceNet) != "192.168.10.5" {
		t.Errorf("guest instance IP = %q", vm1.IP(InstanceNet))
	}
	if vm1.IP(StorageNet) != "10.0.0.1" {
		t.Errorf("guest storage IP = %q, want host NIC", vm1.IP(StorageNet))
	}
	if !vm1.Guest() {
		t.Error("Guest() = false")
	}
	// Duplicate instance IP must be rejected.
	if _, err := compute.NewGuest("vm2", "192.168.10.5"); err == nil {
		t.Error("duplicate instance IP: want error")
	}
	// The fabric can find the host by guest IP.
	if h := f.HostByIP(InstanceNet, "192.168.10.5"); h == nil || h.Name() != "compute1" {
		t.Error("HostByIP did not resolve guest IP")
	}
}

func TestRouteMetadataOnAcceptedConn(t *testing.T) {
	_, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("t")
	ln, err := tgt.Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c.(*Conn)
		}
	}()
	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	srv := <-acceptCh
	defer srv.Close()
	if srv.RemoteAddr().String() != c.LocalAddr().String() {
		t.Errorf("server sees peer %v, client is %v", srv.RemoteAddr(), c.LocalAddr())
	}
	if got := srv.Route().DialedDst.String(); got != "10.0.0.100:3260" {
		t.Errorf("Route().DialedDst = %v", got)
	}
	if len(srv.Route().Hops) == 0 {
		t.Error("route has no hops")
	}
}

func TestLatencyModelDelaysDelivery(t *testing.T) {
	model := fastModel()
	model.Latency = map[HopKind]time.Duration{HopWire: 20 * time.Millisecond}
	_, compute, storage := twoHostFabric(t, model)
	tgt := storage.NewEndpoint("t")
	ln, err := tgt.Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c.(*Conn)
		}
	}()
	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	srv := <-acceptCh
	defer srv.Close()

	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("one-way delivery took %v, want >= ~20ms wire latency", el)
	}
}

func TestPerFramePacingAccumulates(t *testing.T) {
	// With per-packet cost C and N frames, delivery of the last byte should
	// take at least N*C.
	model := fastModel()
	model.MTU = 1024
	model.PerPacket = map[HopKind]time.Duration{HopSwitch: time.Millisecond}
	_, compute, storage := twoHostFabric(t, model)
	tgt := storage.NewEndpoint("t")
	ln, _ := tgt.Listen(StorageNet, 3260)
	defer ln.Close()
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c.(*Conn)
		}
	}()
	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	srv := <-acceptCh
	defer srv.Close()

	const frames = 8
	payload := make([]byte, frames*1024)
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := io.ReadFull(srv, make([]byte, len(payload))); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Path has 2 switch hops -> 2ms per frame -> >= 16ms total.
	if el := time.Since(start); el < frames*2*time.Millisecond*8/10 {
		t.Errorf("delivery took %v, want >= ~%v", el, frames*2*time.Millisecond)
	}
}

func TestReadDeadline(t *testing.T) {
	_, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("t")
	ln, _ := tgt.Listen(StorageNet, 3260)
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			time.Sleep(200 * time.Millisecond)
		}
	}()
	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatalf("SetReadDeadline: %v", err)
	}
	start := time.Now()
	_, err = c.Read(make([]byte, 1))
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("Read err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Error("deadline did not fire promptly")
	}
	// Clearing the deadline allows reads again.
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatalf("clear deadline: %v", err)
	}
}

func TestCloseDeliversEOFAfterDrain(t *testing.T) {
	_, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("t")
	ln, _ := tgt.Listen(StorageNet, 3260)
	defer ln.Close()
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c.(*Conn)
		}
	}()
	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	srv := <-acceptCh
	defer srv.Close()
	if _, err := c.Write([]byte("tail")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	c.Close()
	got, err := io.ReadAll(srv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "tail" {
		t.Errorf("drained %q, want \"tail\"", got)
	}
}

func TestAbortPropagatesError(t *testing.T) {
	_, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("t")
	ln, _ := tgt.Listen(StorageNet, 3260)
	defer ln.Close()
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c.(*Conn)
		}
	}()
	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	srv := <-acceptCh
	wantErr := errors.New("connection reset by peer")
	c.Abort(wantErr)
	if _, err := srv.Read(make([]byte, 1)); !errors.Is(err, wantErr) {
		t.Errorf("peer Read err = %v, want %v", err, wantErr)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("Write after Abort: want error")
	}
}

func TestCustomRouteFuncTermination(t *testing.T) {
	// A forwarding plane that redirects all storage traffic to a relay
	// endpoint, exposing NextHop metadata.
	f, compute, storage := twoHostFabric(t, fastModel())
	mbHost, err := f.AddHost("mb1", map[Network]string{
		StorageNet:  "10.0.0.50",
		InstanceNet: "192.168.0.50",
	})
	if err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	relay := mbHost.NewEndpoint("relay")
	relayLn, err := relay.Listen(StorageNet, 13260)
	if err != nil {
		t.Fatalf("relay Listen: %v", err)
	}
	defer relayLn.Close()
	tgt := storage.NewEndpoint("t")
	tgtLn, err := tgt.Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("target Listen: %v", err)
	}
	defer tgtLn.Close()

	f.SetRoute(func(fb *Fabric, src *Endpoint, srcAddr, dst Addr) (*Route, error) {
		if src.Name() == "relay" {
			return DirectRoute(fb, src, srcAddr, dst)
		}
		return &Route{
			Terminate: Addr{Net: StorageNet, IP: "10.0.0.50", Port: 13260},
			SrcAsSeen: srcAddr,
			DialedDst: dst,
			NextHop:   dst,
			Hops:      PathHops(fb, src.Host().Name(), src.Guest(), "mb1", false),
		}, nil
	})

	// Relay: accept, then dial onward per NextHop and splice.
	go func() {
		c, err := relayLn.Accept()
		if err != nil {
			return
		}
		conn := c.(*Conn)
		next := conn.Route().NextHop
		out, err := relay.DialAddr(next)
		if err != nil {
			t.Errorf("relay onward dial: %v", err)
			return
		}
		go func() { _, _ = io.Copy(out, conn) }()
		_, _ = io.Copy(conn, out)
	}()
	// Target: echo one message.
	go func() {
		c, err := tgtLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		_, _ = c.Write(buf)
	}()

	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(buf) != "ping" {
		t.Errorf("spliced echo = %q", buf)
	}
}

func TestRouteFuncRejection(t *testing.T) {
	f, compute, _ := twoHostFabric(t, fastModel())
	f.SetRoute(func(fb *Fabric, src *Endpoint, srcAddr, dst Addr) (*Route, error) {
		return nil, fmt.Errorf("%w: isolation policy", ErrNoRoute)
	})
	vm := compute.NewEndpoint("vm")
	if _, err := vm.Dial(StorageNet, "10.0.0.100:3260"); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestCPUChargingOnPath(t *testing.T) {
	model := fastModel()
	model.PerPacket = map[HopKind]time.Duration{
		HopSwitch: time.Millisecond,
		HopWire:   time.Millisecond,
	}
	f, compute, storage := twoHostFabric(t, model)
	tgt := storage.NewEndpoint("t")
	ln, _ := tgt.Listen(StorageNet, 3260)
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			_, _ = io.Copy(io.Discard, c)
		}
	}()
	vm := compute.NewEndpoint("vm")
	c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write(make([]byte, 64*1024)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for _, host := range []string{"compute1", "storage1"} {
		cpu := f.Host(host).CPU()
		testutil.WaitFor(t, 5*time.Second, "packet processing charged to "+host,
			func() bool { return cpu.Busy("net") > 0 })
	}
}

func TestPathHops(t *testing.T) {
	f, _, _ := twoHostFabric(t, fastModel())
	// Guest to remote host-level endpoint.
	hops := PathHops(f, "compute1", true, "storage1", false)
	wantKinds := []HopKind{HopVirtio, HopSwitch, HopWire, HopSwitch}
	if len(hops) != len(wantKinds) {
		t.Fatalf("hops = %v", hops)
	}
	for i, k := range wantKinds {
		if hops[i].Kind != k {
			t.Errorf("hop %d = %v, want %v", i, hops[i].Kind, k)
		}
	}
	// Same-host guest to guest crosses the bridge and two virtio copies.
	hops = PathHops(f, "compute1", true, "compute1", true)
	var virtio, bridge int
	for _, h := range hops {
		switch h.Kind {
		case HopVirtio:
			virtio++
		case HopBridge:
			bridge++
		case HopWire:
			t.Error("same-host path must not cross the wire")
		}
	}
	if virtio != 2 || bridge != 1 {
		t.Errorf("same-host path: %d virtio, %d bridge; want 2, 1", virtio, bridge)
	}
}

func TestForwardHops(t *testing.T) {
	hops := ForwardHops("mb1")
	var virtio, fwd int
	for _, h := range hops {
		if h.Host != "mb1" {
			t.Errorf("hop %v not charged to mb1", h)
		}
		switch h.Kind {
		case HopVirtio:
			virtio++
		case HopForward:
			fwd++
		}
	}
	if virtio != 2 || fwd != 1 {
		t.Errorf("ForwardHops: %d virtio, %d forward; want 2, 1", virtio, fwd)
	}
}

func TestConcurrentConnections(t *testing.T) {
	_, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("t")
	ln, _ := tgt.Listen(StorageNet, 3260)
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 128)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	var wg sync.WaitGroup
	vm := compute.NewEndpoint("vm")
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := vm.Dial(StorageNet, "10.0.0.100:3260")
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			msg := []byte(fmt.Sprintf("conn-%02d", i))
			if _, err := c.Write(msg); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Errorf("Read: %v", err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("echo mismatch: %q != %q", buf, msg)
			}
		}(i)
	}
	wg.Wait()
}

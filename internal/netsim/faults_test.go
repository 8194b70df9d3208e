package netsim

import (
	"errors"
	"io"
	"testing"

	"repro/internal/faults"
)

// dialEcho starts an echo server on the target endpoint and dials it,
// returning the client conn.
func dialEcho(t *testing.T, ln *Listener, from *Endpoint, hostport string) *Conn {
	t.Helper()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			io.Copy(c, c)
		}()
	}()
	conn, err := from.Dial(StorageNet, hostport)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return conn
}

func echoOnce(c *Conn, payload []byte) error {
	if _, err := c.Write(payload); err != nil {
		return err
	}
	buf := make([]byte, len(payload))
	_, err := io.ReadFull(c, buf)
	return err
}

func TestCutHostAbortsConnsAndRefusesDials(t *testing.T) {
	f, compute, storage := twoHostFabric(t, fastModel())
	tgt := storage.NewEndpoint("target")
	ln, err := tgt.Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	vm := compute.NewEndpoint("vm")
	conn := dialEcho(t, ln, vm, "10.0.0.100:3260")
	if err := echoOnce(conn, []byte("ping")); err != nil {
		t.Fatalf("echo before cut: %v", err)
	}

	if n := f.CutHost("storage1"); n != 1 {
		t.Fatalf("CutHost aborted %d conns, want 1", n)
	}
	buf := make([]byte, 4)
	if _, err := conn.Read(buf); !errors.Is(err, ErrHostDown) {
		t.Fatalf("read on cut conn: err = %v, want ErrHostDown", err)
	}
	if _, err := vm.Dial(StorageNet, "10.0.0.100:3260"); !errors.Is(err, ErrHostDown) {
		t.Fatalf("dial to down host: err = %v, want ErrHostDown", err)
	}

	f.HealHost("storage1")
	conn2 := dialEcho(t, ln, vm, "10.0.0.100:3260")
	defer conn2.Close()
	if err := echoOnce(conn2, []byte("pong")); err != nil {
		t.Fatalf("echo after heal: %v", err)
	}
}

func TestCutLinkAllowsImmediateRedial(t *testing.T) {
	f, compute, storage := twoHostFabric(t, fastModel())
	ln, err := storage.NewEndpoint("target").Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	vm := compute.NewEndpoint("vm")
	conn := dialEcho(t, ln, vm, "10.0.0.100:3260")
	if n := f.CutLink("compute1", "storage1"); n != 1 {
		t.Fatalf("CutLink aborted %d conns, want 1", n)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); !errors.Is(err, ErrConnReset) {
		t.Fatalf("read on cut link: err = %v, want ErrConnReset", err)
	}
	// No dial block: the very next dial succeeds with no heal step.
	conn2 := dialEcho(t, ln, vm, "10.0.0.100:3260")
	defer conn2.Close()
	if err := echoOnce(conn2, []byte("x")); err != nil {
		t.Fatalf("redial after CutLink: %v", err)
	}
}

// liveConns is the number of connections the fault plane still tracks.
func liveConns(f *Fabric) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tracks)
}

func TestLiveConnTrackingRetiresOnClose(t *testing.T) {
	f, compute, storage := twoHostFabric(t, fastModel())
	ln, err := storage.NewEndpoint("target").Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	vm := compute.NewEndpoint("vm")
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c.(*Conn)
		}
	}()
	conn, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	srv := <-accepted
	if n := liveConns(f); n != 1 {
		t.Fatalf("live conns = %d, want 1", n)
	}
	conn.Close()
	srv.Close()
	if n := liveConns(f); n != 0 {
		t.Fatalf("live conns after close = %d, want 0", n)
	}
}

// TestRouteReleaseRunsOnce: a route's Release runs once per connection, on
// the first Close or Abort of either half, and once for a dial that fails
// after its route was resolved.
func TestRouteReleaseRunsOnce(t *testing.T) {
	f, compute, storage := twoHostFabric(t, fastModel())
	ln, err := storage.NewEndpoint("target").Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	released := 0
	f.SetRoute(func(f *Fabric, src *Endpoint, srcAddr, dst Addr) (*Route, error) {
		r, err := DirectRoute(f, src, srcAddr, dst)
		if r != nil {
			r.Release = func() { released++ }
		}
		return r, err
	})
	vm := compute.NewEndpoint("vm")
	accepted := make(chan *Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c.(*Conn)
		}
	}()
	conn, err := vm.Dial(StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	srv := <-accepted
	srv.Close()
	conn.Abort(ErrConnReset)
	conn.Close()
	if released != 1 {
		t.Fatalf("Release ran %d times for one connection, want 1", released)
	}
	if _, err := vm.Dial(StorageNet, "10.0.0.100:9999"); err == nil {
		t.Fatal("dial to a port nobody listens on succeeded")
	}
	if released != 2 {
		t.Fatalf("Release ran %d times after a refused dial, want 2", released)
	}
}

// TestScheduleDrivenCut binds a CutLink to a logical tick of a fault
// schedule: the cut fires after exactly 5 completed echoes, with no
// wall-clock timing anywhere.
func TestScheduleDrivenCut(t *testing.T) {
	f, compute, storage := twoHostFabric(t, fastModel())
	ln, err := storage.NewEndpoint("target").Listen(StorageNet, 3260)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	vm := compute.NewEndpoint("vm")
	conn := dialEcho(t, ln, vm, "10.0.0.100:3260")

	sched := faults.NewSchedule()
	sched.At(5, "cut-link", func() { f.CutLink("compute1", "storage1") })

	completed := 0
	var lastErr error
	for i := 0; i < 20; i++ {
		if lastErr = echoOnce(conn, []byte("tick")); lastErr != nil {
			break
		}
		completed++
		sched.Step()
	}
	if completed != 5 {
		t.Fatalf("completed %d echoes before cut, want exactly 5 (err=%v)", completed, lastErr)
	}
	if !errors.Is(lastErr, ErrConnReset) {
		t.Fatalf("post-cut error = %v, want ErrConnReset", lastErr)
	}
	if fired := sched.Fired(); len(fired) != 1 || fired[0] != "cut-link" {
		t.Fatalf("Fired() = %v", fired)
	}
}

package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Common fabric errors.
var (
	// ErrConnRefused reports a dial to an address with no listener.
	ErrConnRefused = errors.New("netsim: connection refused")
	// ErrNoRoute reports that the forwarding plane rejected the flow (for
	// example a tenant VM dialing into an isolated middle-box).
	ErrNoRoute = errors.New("netsim: no route to host")
	// ErrListenerClosed reports Accept on a closed listener.
	ErrListenerClosed = errors.New("netsim: listener closed")
)

// RouteFunc is the fabric's forwarding plane: it decides how a flow dialed
// by src toward dst is translated, steered, and terminated. The default
// plane routes directly; the StorM splice package installs the NAT-gateway +
// SDN-steering plane.
type RouteFunc func(fabric *Fabric, src *Endpoint, srcAddr, dst Addr) (*Route, error)

// Fabric is the simulated datacenter network: hosts, endpoints, listeners,
// and the forwarding plane.
type Fabric struct {
	model Model

	mu        sync.Mutex
	hosts     map[string]*Host
	listeners map[string]*Listener // key: net|ip:port
	route     RouteFunc
	nextPort  int

	// Fault plane (see faults.go). All lazily allocated.
	tracks       map[*connTrack]struct{}
	downHosts    map[string]struct{}
	parts        map[partKey]struct{}
	hostDelay    map[string]time.Duration
	hostThrottle map[string]*faults.SlowBackend
}

// NewFabric creates a fabric with the given cost model and the direct
// forwarding plane.
func NewFabric(model Model) *Fabric {
	return &Fabric{
		model:     model,
		hosts:     make(map[string]*Host),
		listeners: make(map[string]*Listener),
		nextPort:  33000,
	}
}

// Model returns the fabric's cost model.
func (f *Fabric) Model() Model { return f.model }

// SetRoute installs the forwarding plane. A nil route restores direct
// routing.
func (f *Fabric) SetRoute(r RouteFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.route = r
}

// AddHost registers a physical host with its per-network IP addresses.
func (f *Fabric) AddHost(name string, ips map[Network]string) (*Host, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.hosts[name]; ok {
		return nil, fmt.Errorf("netsim: host %q already exists", name)
	}
	h := &Host{
		name:   name,
		fabric: f,
		ips:    make(map[Network]string, len(ips)),
		cpu:    obs.NewCPUAccount(),
	}
	for n, ip := range ips {
		h.ips[n] = ip
	}
	f.hosts[name] = h
	return h, nil
}

// Host returns the named host, or nil.
func (f *Fabric) Host(name string) *Host {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hosts[name]
}

// Hosts returns all registered host names.
func (f *Fabric) Hosts() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.hosts))
	for n := range f.hosts {
		names = append(names, n)
	}
	return names
}

// HostByIP returns the host owning ip on the given network, or nil.
func (f *Fabric) HostByIP(network Network, ip string) *Host {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hostByIPLocked(network, ip)
}

func (f *Fabric) hostByIPLocked(network Network, ip string) *Host {
	for _, h := range f.hosts {
		if h.ips[network] == ip {
			return h
		}
	}
	// Guest endpoints may own their own instance-network IPs.
	for _, h := range f.hosts {
		if h.guestIPs != nil {
			if _, ok := h.guestIPs[guestKey{network, ip}]; ok {
				return h
			}
		}
	}
	return nil
}

func (f *Fabric) allocPort() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextPort++
	return f.nextPort
}

func lkey(a Addr) string { return fmt.Sprintf("%d|%s:%d", a.Net, a.IP, a.Port) }

func (f *Fabric) registerListener(l *Listener) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := lkey(l.addr)
	if _, ok := f.listeners[k]; ok {
		return fmt.Errorf("netsim: address %v already in use", l.addr)
	}
	f.listeners[k] = l
	return nil
}

func (f *Fabric) removeListener(l *Listener) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := lkey(l.addr)
	if f.listeners[k] == l {
		delete(f.listeners, k)
	}
}

// FindListener returns the listener bound at addr, or nil.
func (f *Fabric) FindListener(addr Addr) *Listener {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.listeners[lkey(addr)]
}

// dial resolves a route for the flow and delivers a connection to the
// terminating listener.
func (f *Fabric) dial(src *Endpoint, dst Addr) (*Conn, error) {
	srcAddr := Addr{Net: dst.Net, IP: src.IP(dst.Net), Port: f.allocPort()}
	if srcAddr.IP == "" {
		return nil, fmt.Errorf("%w: endpoint %s has no NIC on the %s network", ErrNoRoute, src.name, dst.Net)
	}

	f.mu.Lock()
	routeFn := f.route
	f.mu.Unlock()

	var route *Route
	var err error
	if routeFn != nil {
		route, err = routeFn(f, src, srcAddr, dst)
	} else {
		route, err = DirectRoute(f, src, srcAddr, dst)
	}
	if err != nil {
		return nil, err
	}
	if route.SrcAsSeen.IsZero() {
		route.SrcAsSeen = srcAddr
	}
	if route.DialedDst.IsZero() {
		route.DialedDst = dst
	}
	if route.Terminate.IsZero() {
		route.Terminate = dst
	}

	ln := f.FindListener(route.Terminate)
	if ln == nil {
		return nil, fmt.Errorf("%w: %v (dialed %v)", ErrConnRefused, route.Terminate, dst)
	}

	chargeFor := func(hops []Hop) func(time.Duration) {
		// Charge per-direction processing to the hosts on the path,
		// proportionally to their share of the per-frame cost. The host
		// lookups, fractions, and stage timers are resolved once here so the
		// per-frame closure stays cheap. Stage-tagged hops also record their
		// share into per-stage latency histograms.
		var sum time.Duration
		for _, h := range hops {
			if h.Host != "" {
				sum += f.model.PerPacket[h.Kind]
			}
		}
		if sum <= 0 {
			return func(time.Duration) {}
		}
		type hopCharge struct {
			host  *Host
			timer obs.Timer
			stage string
			frac  float64
		}
		charges := make([]hopCharge, 0, len(hops))
		for _, h := range hops {
			if h.Host == "" {
				continue
			}
			hc := hopCharge{
				host:  f.Host(h.Host),
				stage: h.Stage,
				frac:  float64(f.model.PerPacket[h.Kind]) / float64(sum),
			}
			if h.Stage != "" {
				hc.timer = obs.Default().Timer(obs.StagePrefix + h.Stage)
			}
			charges = append(charges, hc)
		}
		return func(total time.Duration) {
			for _, hc := range charges {
				share := time.Duration(float64(total) * hc.frac)
				if hc.host != nil {
					hc.host.cpu.Charge("net", share)
				}
				if hc.timer.Enabled() {
					hc.timer.Observe(share)
					// With tracing on, the hop's share also lands as a span
					// on whatever trace the writing goroutine carries.
					obs.Default().RecordHop(hc.stage, share)
				}
			}
		}
	}
	revHops := make([]Hop, len(route.Hops))
	for i, h := range route.Hops {
		revHops[len(route.Hops)-1-i] = h
	}
	dialSide, acceptSide := newConnPair(f.model, route, chargeFor(route.Hops), chargeFor(revHops))
	track := &connTrack{
		fabric: f,
		aHost:  src.host.name,
		bHost:  ln.endpoint.host.name,
		dial:   dialSide,
	}
	extra, throttles, err := f.admitConn(track)
	if err != nil {
		return nil, err
	}
	dialSide.track, acceptSide.track = track, track
	if extra > 0 {
		dialSide.out.setExtra(extra)
		dialSide.in.setExtra(extra)
	}
	if len(throttles) > 0 {
		dialSide.out.setThrottles(throttles)
		dialSide.in.setThrottles(throttles)
	}
	if err := ln.deliver(acceptSide); err != nil {
		track.remove()
		return nil, err
	}
	return dialSide, nil
}

// DirectRoute is the default forwarding plane: the flow lands exactly where
// it was dialed, traversing the two hosts' switches and the wire (or an
// intra-host bridge when source and destination share a host).
func DirectRoute(f *Fabric, src *Endpoint, srcAddr, dst Addr) (*Route, error) {
	dstHost := f.HostByIP(dst.Net, dst.IP)
	if dstHost == nil {
		// The listener may be bound to a guest IP that matches a listener
		// but no host NIC; fall back to locating the listener itself.
		if ln := f.FindListener(dst); ln != nil {
			dstHost = ln.endpoint.host
		}
	}
	if dstHost == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRoute, dst)
	}
	var dstGuest bool
	if ln := f.FindListener(dst); ln != nil {
		dstGuest = ln.endpoint.guest
	}
	hops := PathHops(f, src.host.name, src.guest, dstHost.name, dstGuest)
	return &Route{Terminate: dst, SrcAsSeen: srcAddr, DialedDst: dst, Hops: hops}, nil
}

// PathHops builds the hop list between two endpoints, inserting virtio
// boundaries for guest endpoints and a wire leg (or intra-host bridge) as
// placement dictates. Forwarding planes use it to assemble route segments.
func PathHops(f *Fabric, srcHost string, srcGuest bool, dstHost string, dstGuest bool) []Hop {
	var hops []Hop
	if srcGuest {
		hops = append(hops, Hop{Kind: HopVirtio, Host: srcHost})
	}
	hops = append(hops, Hop{Kind: HopSwitch, Host: srcHost})
	if srcHost != dstHost {
		hops = append(hops, Hop{Kind: HopWire}, Hop{Kind: HopSwitch, Host: dstHost})
	} else if srcGuest || dstGuest {
		hops = append(hops, Hop{Kind: HopBridge, Host: srcHost})
	}
	if dstGuest {
		hops = append(hops, Hop{Kind: HopVirtio, Host: dstHost})
	}
	return hops
}

// ForwardHops builds the hop list for a non-terminating traversal of a
// middle-box VM on the named host (the MB-FWD case): into the host, a
// virtio copy each way, and kernel forwarding inside the guest.
func ForwardHops(host string) []Hop {
	return []Hop{
		{Kind: HopSwitch, Host: host},
		{Kind: HopVirtio, Host: host},
		{Kind: HopForward, Host: host},
		{Kind: HopVirtio, Host: host},
	}
}

// Listener accepts connections delivered by the fabric. It implements
// net.Listener.
type Listener struct {
	addr     Addr
	endpoint *Endpoint
	backlog  chan *Conn
	once     sync.Once
	done     chan struct{}
}

var _ net.Listener = (*Listener)(nil)

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrListenerClosed
	}
}

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.endpoint.host.fabric.removeListener(l)
	})
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.addr }

func (l *Listener) deliver(c *Conn) error {
	select {
	case <-l.done:
		return ErrConnRefused
	case l.backlog <- c:
		return nil
	}
}

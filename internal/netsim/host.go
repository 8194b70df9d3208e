package netsim

import (
	"fmt"
	"net"

	"repro/internal/obs"
)

type guestKey struct {
	net Network
	ip  string
}

// Host is a physical machine on the fabric with one NIC per attached
// network and a CPU account charged for packet processing and (by the upper
// layers) service work.
type Host struct {
	name   string
	fabric *Fabric
	ips    map[Network]string
	cpu    *obs.CPUAccount

	// guestIPs registers per-VM instance-network addresses hosted here.
	guestIPs map[guestKey]string
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// IP returns the host's address on the given network ("" if not attached).
func (h *Host) IP(n Network) string { return h.ips[n] }

// CPU returns the host's CPU account.
func (h *Host) CPU() *obs.CPUAccount { return h.cpu }

// NewEndpoint creates a host-level endpoint (no virtio boundary), such as
// the iSCSI target daemon or a storage gateway.
func (h *Host) NewEndpoint(name string) *Endpoint {
	return &Endpoint{name: name, host: h}
}

// NewGuest creates a guest (VM) endpoint on this host. Traffic to and from
// it crosses the virtio boundary. On the instance network the guest owns
// its own IP; on the storage network guests share the host NIC (as in the
// paper, where the iSCSI initiator runs on the compute host).
func (h *Host) NewGuest(name, instanceIP string) (*Endpoint, error) {
	ep := &Endpoint{name: name, host: h, guest: true, instanceIP: instanceIP}
	if instanceIP != "" {
		h.fabric.mu.Lock()
		defer h.fabric.mu.Unlock()
		if h.guestIPs == nil {
			h.guestIPs = make(map[guestKey]string)
		}
		k := guestKey{InstanceNet, instanceIP}
		if owner, ok := h.guestIPs[k]; ok {
			return nil, fmt.Errorf("netsim: instance IP %s already owned by %s", instanceIP, owner)
		}
		h.guestIPs[k] = name
	}
	return ep, nil
}

// RemoveGuest releases a guest's instance-network address so the host can
// place another guest there (scale-down teardown). Endpoints holding the
// address keep working until closed; only the ownership registration goes.
func (h *Host) RemoveGuest(instanceIP string) {
	if instanceIP == "" {
		return
	}
	h.fabric.mu.Lock()
	defer h.fabric.mu.Unlock()
	delete(h.guestIPs, guestKey{InstanceNet, instanceIP})
}

// Endpoint is a dialing/listening identity attached to a host: either a
// host-level process or a guest VM.
type Endpoint struct {
	name       string
	host       *Host
	guest      bool
	instanceIP string
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Host returns the host the endpoint lives on.
func (e *Endpoint) Host() *Host { return e.host }

// Guest reports whether the endpoint is a VM (crosses virtio).
func (e *Endpoint) Guest() bool { return e.guest }

// IP returns the endpoint's address on the given network.
func (e *Endpoint) IP(n Network) string {
	if e.guest && n == InstanceNet && e.instanceIP != "" {
		return e.instanceIP
	}
	return e.host.ips[n]
}

// Dial opens a connection to hostport on the given network, routed by the
// fabric's forwarding plane.
func (e *Endpoint) Dial(network Network, hostport string) (*Conn, error) {
	dst, err := ParseHostPort(network, hostport)
	if err != nil {
		return nil, err
	}
	return e.host.fabric.dial(e, dst)
}

// DialAddr is Dial with a pre-parsed address.
func (e *Endpoint) DialAddr(dst Addr) (*Conn, error) {
	return e.host.fabric.dial(e, dst)
}

// Listen binds a listener at the endpoint's address on the given network
// and port.
func (e *Endpoint) Listen(network Network, port int) (*Listener, error) {
	ip := e.IP(network)
	if ip == "" {
		return nil, fmt.Errorf("netsim: endpoint %s has no NIC on the %s network", e.name, network)
	}
	return e.ListenAddr(Addr{Net: network, IP: ip, Port: port})
}

// ListenAddr binds a listener at an explicit address (which must belong to
// this endpoint's host or guest identity).
func (e *Endpoint) ListenAddr(addr Addr) (*Listener, error) {
	if addr.Port <= 0 {
		return nil, fmt.Errorf("netsim: invalid listen port %d", addr.Port)
	}
	l := &Listener{
		addr:     addr,
		endpoint: e,
		backlog:  make(chan *Conn, 64),
		done:     make(chan struct{}),
	}
	if err := e.host.fabric.registerListener(l); err != nil {
		return nil, err
	}
	return l, nil
}

var _ net.Addr = Addr{}

// Package netsim simulates the cloud datacenter fabric of Figure 1: compute
// and storage hosts joined by two isolated networks (the storage network and
// the instance network). Connections between endpoints are real in-process
// byte streams, but every connection follows a resolved multi-hop route whose
// per-hop latency, per-packet copy cost, and link bandwidth are modelled, so
// the routing overheads the paper measures (extra gateway/middle-box hops,
// intra-host virtio copies) appear in wall-clock behaviour.
//
// The fabric itself is policy-free: a pluggable RouteFunc decides how a
// dialed flow is translated and which hosts it traverses. The StorM
// forwarding plane (NAT gateways + SDN flow steering) is installed by the
// splice package.
package netsim

import (
	"fmt"
	"strconv"
	"strings"
)

// Network identifies one of the two isolated datacenter networks.
type Network int

// The two networks of the datacenter in Figure 1.
const (
	StorageNet Network = iota + 1
	InstanceNet
)

// String renders the network name.
func (n Network) String() string {
	switch n {
	case StorageNet:
		return "storage"
	case InstanceNet:
		return "instance"
	default:
		return fmt.Sprintf("network(%d)", int(n))
	}
}

// Addr is an endpoint address on one of the simulated networks. It
// implements net.Addr.
type Addr struct {
	Net  Network
	IP   string
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return a.Net.String() }

// String implements net.Addr.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.IP == "" && a.Port == 0 && a.Net == 0 }

// ParseHostPort splits an "ip:port" string into an Addr on the given network.
func ParseHostPort(network Network, s string) (Addr, error) {
	idx := strings.LastIndexByte(s, ':')
	if idx < 0 {
		return Addr{}, fmt.Errorf("netsim: address %q missing port", s)
	}
	port, err := strconv.Atoi(s[idx+1:])
	if err != nil || port <= 0 || port > 65535 {
		return Addr{}, fmt.Errorf("netsim: address %q has invalid port", s)
	}
	ip := s[:idx]
	if ip == "" {
		return Addr{}, fmt.Errorf("netsim: address %q missing host", s)
	}
	return Addr{Net: network, IP: ip, Port: port}, nil
}

// Flow is the 4-tuple (plus network) identifying one connection's packets.
// StorM's connection attribution and flow steering match on this tuple.
type Flow struct {
	Net     Network
	SrcIP   string
	SrcPort int
	DstIP   string
	DstPort int
}

// String renders the flow as "src -> dst (network)".
func (f Flow) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d (%s)", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort, f.Net)
}

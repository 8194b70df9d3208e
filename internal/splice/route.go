package splice

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sdn"
	"repro/internal/vswitch"
)

// Route is the plane's netsim.RouteFunc: the data-plane decision for every
// new flow.
func (p *Plane) Route(f *netsim.Fabric, src *netsim.Endpoint, srcAddr, dst netsim.Addr) (*netsim.Route, error) {
	// Isolation: tenant VMs may not dial middle-boxes or gateways directly.
	if src.Guest() && p.isProtected(dst.IP) && !p.isMB(src.Name()) {
		return nil, fmt.Errorf("%w: %v from %s", ErrIsolated, dst, src.Name())
	}

	// A relay middle-box dialing onward resumes its chain walk.
	if mb := p.mbInfo(src.Name()); mb != nil {
		if dep := p.depByEgressIP(dst.IP); dep != nil {
			return p.routeFromStation(dep, srcAddr, dst, mb.Host, mb.Name, src)
		}
	}

	// Compute-host NAT: the attach-window capture rule brings the flow
	// into the instance network.
	flow := netsim.Flow{
		Net:     dst.Net,
		SrcIP:   srcAddr.IP,
		SrcPort: srcAddr.Port,
		DstIP:   dst.IP,
		DstPort: dst.Port,
	}
	tbl := p.HostNAT(src.Host().Name())
	translated, _, captured := tbl.Apply(flow)
	if !captured {
		return netsim.DirectRoute(f, src, srcAddr, dst)
	}
	dep := p.depByIngressIP(translated.DstIP)
	if dep == nil {
		return nil, fmt.Errorf("splice: capture rule points at unknown ingress %s", translated.DstIP)
	}

	// VM -> ingress gateway host, plus the gateway's routing work.
	hops := netsim.PathHops(f, src.Host().Name(), src.Guest(), dep.Ingress.Host, false)
	hops = append(hops, netsim.Hop{Kind: netsim.HopForward, Host: dep.Ingress.Host, Stage: obs.StageGatewayIngress})
	return p.walkChain(dep, srcAddr, dst, dep.Ingress.Host, sdn.IngressStation, hops)
}

// routeFromStation resumes the chain at a middle-box station for a relay's
// onward dial.
func (p *Plane) routeFromStation(dep *Deployment, srcAddr, dst netsim.Addr, host, station string, src *netsim.Endpoint) (*netsim.Route, error) {
	// Out of the relay guest onto its host's switch.
	hops := []netsim.Hop{
		{Kind: netsim.HopVirtio, Host: host},
		{Kind: netsim.HopSwitch, Host: host},
	}
	return p.walkChain(dep, srcAddr, dst, host, station, hops)
}

// walkChain follows the deployment's steering rules from (host, station),
// accumulating hops, and terminates either at a relay middle-box or at the
// storage target behind the egress gateway.
func (p *Plane) walkChain(dep *Deployment, srcAddr, dialedDst netsim.Addr, host, station string, hops []netsim.Hop) (*netsim.Route, error) {
	// The flow as seen inside the instance network after ingress
	// masquerading: src is the ingress gateway (VM port preserved), dst is
	// the egress gateway.
	instFlow := netsim.Flow{
		Net:     netsim.InstanceNet,
		SrcIP:   dep.Ingress.InstanceIP,
		SrcPort: srcAddr.Port,
		DstIP:   dep.Egress.InstanceIP,
		DstPort: iscsiPort,
	}
	cur := host
	steps := p.ctrl.Walk(instFlow, host, station)
	release := releaseBindings(instFlow, steps)
	for _, st := range steps {
		switch st.MB.Mode {
		case vswitch.ModeForward:
			if st.MB.Host != cur {
				hops = append(hops, netsim.Hop{Kind: netsim.HopWire})
			}
			fwd := netsim.ForwardHops(st.MB.Host)
			for i := range fwd {
				if fwd[i].Kind == netsim.HopForward {
					fwd[i].Stage = obs.StageMBForward
				}
			}
			hops = append(hops, fwd...)
			cur = st.MB.Host
		case vswitch.ModeTerminate:
			if st.MB.Host != cur {
				hops = append(hops,
					netsim.Hop{Kind: netsim.HopWire},
					netsim.Hop{Kind: netsim.HopSwitch, Host: st.MB.Host})
			}
			hops = append(hops, netsim.Hop{Kind: netsim.HopVirtio, Host: st.MB.Host})
			return &netsim.Route{
				Terminate: st.MB.RelayAddr,
				SrcAsSeen: netsim.Addr{Net: netsim.InstanceNet, IP: dep.Ingress.InstanceIP, Port: srcAddr.Port},
				DialedDst: dialedDst,
				NextHop:   netsim.Addr{Net: netsim.InstanceNet, IP: dep.Egress.InstanceIP, Port: iscsiPort},
				Hops:      hops,
				Release:   release,
			}, nil
		default:
			return nil, fmt.Errorf("splice: chain %q has unknown steering mode %v", dep.ID, st.MB.Mode)
		}
	}

	// End of chain: egress gateway, then the storage network to the target.
	if dep.Egress.Host != cur {
		hops = append(hops,
			netsim.Hop{Kind: netsim.HopWire},
			netsim.Hop{Kind: netsim.HopSwitch, Host: dep.Egress.Host})
	}
	hops = append(hops, netsim.Hop{Kind: netsim.HopForward, Host: dep.Egress.Host, Stage: obs.StageGatewayEgress})
	targetHost := p.fabric.HostByIP(netsim.StorageNet, dep.TargetAddr.IP)
	if targetHost == nil {
		return nil, fmt.Errorf("splice: deployment %q target %v is on no host", dep.ID, dep.TargetAddr)
	}
	if targetHost.Name() != dep.Egress.Host {
		hops = append(hops,
			netsim.Hop{Kind: netsim.HopWire},
			netsim.Hop{Kind: netsim.HopSwitch, Host: targetHost.Name()})
	}
	egressHost := p.fabric.Host(dep.Egress.Host)
	egressIP := ""
	if egressHost != nil {
		egressIP = egressHost.IP(netsim.StorageNet)
	}
	return &netsim.Route{
		Terminate: dep.TargetAddr,
		SrcAsSeen: netsim.Addr{Net: netsim.StorageNet, IP: egressIP, Port: srcAddr.Port},
		DialedDst: dialedDst,
		Hops:      hops,
		Release:   release,
	}, nil
}

// releaseBindings is the Route.Release that frees flow's bindings in the
// select groups the walk chose members from, so a closed connection stops
// counting toward its member's load; nil when the walk crossed no group.
func releaseBindings(flow netsim.Flow, steps []sdn.Step) func() {
	var groups []*vswitch.Group
	for _, st := range steps {
		if st.Group != nil {
			groups = append(groups, st.Group)
		}
	}
	if len(groups) == 0 {
		return nil
	}
	return func() {
		for _, g := range groups {
			g.Forget(flow)
		}
	}
}

func (p *Plane) isProtected(ip string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.protected[ip]
}

func (p *Plane) isMB(name string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.mbs[name]
	return ok
}

func (p *Plane) mbInfo(name string) *MBInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.mbs[name]
}

func (p *Plane) depByIngressIP(ip string) *Deployment {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.byIngressIP[ip]
}

func (p *Plane) depByEgressIP(ip string) *Deployment {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.byEgressIP[ip]
}

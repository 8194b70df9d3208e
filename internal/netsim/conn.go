package netsim

import (
	"net"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
)

// Route describes where a dialed flow actually lands and what it traverses,
// as decided by the fabric's RouteFunc (the forwarding plane).
type Route struct {
	// Terminate is the listener address the connection lands on. It may
	// differ from the dialed address when NAT or steering redirects the
	// flow (e.g. to a storage gateway or a relay middle-box).
	Terminate Addr
	// SrcAsSeen is the source address the acceptor observes (post-SNAT).
	SrcAsSeen Addr
	// DialedDst is the (pre-translation) address the dialer targeted.
	DialedDst Addr
	// NextHop tells a terminating relay where the flow was ultimately
	// headed, so it can dial onward (transparent-proxy metadata).
	NextHop Addr
	// Hops is the forward-direction traversal; the reverse direction uses
	// the same stations in reverse order.
	Hops []Hop
}

// Conn is a simulated connection. It implements net.Conn. Data written on
// one side becomes readable on the other after the modelled path delay.
type Conn struct {
	out    *framePipe // local writes -> peer reads
	in     *framePipe // peer writes -> local reads
	local  Addr
	remote Addr
	route  *Route
	peer   *Conn
	dialer bool            // the dialing half (its out is the pair's forward pipe)
	track  *connTrack      // fault-plane registration; shared by both halves
	trace  *obs.TraceTable // per-connection trace carrier; shared by both halves
}

var _ net.Conn = (*Conn)(nil)
var _ obs.TraceCarrier = (*Conn)(nil)

// newConnPair builds the two endpoints of a connection whose forward and
// reverse directions follow the given route under the model. chargeFwd and
// chargeRev receive per-direction processing charges for CPU accounting.
func newConnPair(model Model, route *Route, chargeFwd, chargeRev func(time.Duration)) (dialSide, acceptSide *Conn) {
	fwdHops := route.Hops
	revHops := make([]Hop, len(fwdHops))
	for i, h := range fwdHops {
		revHops[len(fwdHops)-1-i] = h
	}
	fwd := newFramePipe(model.Cost(fwdHops), model.MTU, chargeFwd)
	rev := newFramePipe(model.Cost(revHops), model.MTU, chargeRev)

	trace := obs.NewTraceTable()
	d := &Conn{
		dialer: true,
		out:    fwd,
		in:     rev,
		local:  Addr{Net: route.SrcAsSeen.Net, IP: route.SrcAsSeen.IP, Port: route.SrcAsSeen.Port},
		remote: route.DialedDst,
		route:  route,
		trace:  trace,
	}
	a := &Conn{
		out:    rev,
		in:     fwd,
		local:  route.Terminate,
		remote: route.SrcAsSeen,
		route:  route,
		trace:  trace,
	}
	d.peer, a.peer = a, d
	return d, a
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) { return c.in.read(b) }

// Write implements net.Conn.
func (c *Conn) Write(b []byte) (int, error) { return c.out.write(b) }

// WriteBuffers sends the concatenation of bufs as one write. The iSCSI layer
// uses it to emit a PDU's header and payload without an assembly copy: each
// segment is copied directly into the simulated frames.
func (c *Conn) WriteBuffers(bufs ...[]byte) (int, error) { return c.out.writeBufs(bufs) }

// TakeFrame receives the next frame whole instead of copying it out: while
// nothing is modelled on the path a write is one frame, so the frame is
// exactly what one peer write sent. It blocks as Read does (same deadline,
// close and EOF) and, when the head frame is untimed and unread, transfers
// ownership of its buffer to the caller, who must Release it; more reports
// whether further frames were queued behind it. A nil buffer with a nil
// error means "Read instead": the head frame is modelled or partly read.
func (c *Conn) TakeFrame() (frame *bufpool.Buf, more bool, err error) { return c.in.take() }

// Close implements net.Conn. Both directions shut down; the peer's pending
// data remains readable and then reports EOF.
func (c *Conn) Close() error {
	c.out.close(nil)
	c.in.close(nil)
	c.track.remove()
	return nil
}

// Abort closes the connection reporting err to both sides, emulating a
// connection reset (used by failure-injection tests). The two directions
// fail as one event: closed one after the other, the peer could see the
// first fail, close its end cleanly in response, and so turn the second
// direction's error into a plain EOF. Only Abort holds two pipe locks, and
// always the dialer's outbound one first, so it cannot deadlock against
// itself.
func (c *Conn) Abort(err error) {
	first, second := c.out, c.in
	if !c.dialer {
		first, second = second, first
	}
	first.mu.Lock()
	second.mu.Lock()
	first.closeLocked(err)
	second.closeLocked(err)
	second.mu.Unlock()
	first.mu.Unlock()
	first.signal()
	second.signal()
	c.track.remove()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// Route returns the resolved route metadata for this connection.
func (c *Conn) Route() *Route { return c.route }

// TraceTable returns the connection's out-of-band trace carrier, shared
// by both endpoints (obs.TraceCarrier).
func (c *Conn) TraceTable() *obs.TraceTable { return c.trace }

// BytesWritten returns the number of payload bytes written on this side.
func (c *Conn) BytesWritten() int64 { return c.out.bytes() }

// SetDeadline implements net.Conn (read side only; writes never block).
func (c *Conn) SetDeadline(t time.Time) error {
	c.in.setDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.in.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Writes are non-blocking, so the
// deadline is accepted and ignored.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

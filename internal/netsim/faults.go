package netsim

import (
	"errors"
	"sync"
)

// Fault-injection errors. Aborted connections report these from every
// blocked or subsequent Read/Write, emulating a connection reset; refused
// dials return them wrapped.
var (
	// ErrHostDown reports traffic to or from a host cut with CutHost.
	ErrHostDown = errors.New("netsim: host down")
	// ErrConnReset reports a connection severed with CutLink. Unlike
	// CutHost, no dial block is installed: an immediate redial succeeds.
	ErrConnReset = errors.New("netsim: connection reset")
)

// connTrack links a live connection pair to the fault plane: which two hosts
// it touches and the handle to abort it. Both Conn halves share one track;
// the first Close/Abort retires it.
type connTrack struct {
	fabric *Fabric
	aHost  string
	bHost  string
	dial   *Conn
	once   sync.Once
}

func (t *connTrack) remove() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		t.fabric.mu.Lock()
		delete(t.fabric.tracks, t)
		t.fabric.mu.Unlock()
	})
}

// admitConn refuses a connection touching a host cut with CutHost and
// otherwise registers its track.
func (f *Fabric) admitConn(t *connTrack) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, down := f.downHosts[t.aHost]; down {
		return ErrHostDown
	}
	if _, down := f.downHosts[t.bHost]; down {
		return ErrHostDown
	}
	if f.tracks == nil {
		f.tracks = make(map[*connTrack]struct{})
	}
	f.tracks[t] = struct{}{}
	return nil
}

// abortMatching collects the live connections between host a and host b (b
// == "" matches any peer of a) under the lock, then aborts them outside it
// (Abort re-enters the fabric to retire the track). Returns the number
// aborted.
func (f *Fabric) abortMatching(a, b string, reason error) int {
	f.mu.Lock()
	var victims []*Conn
	for t := range f.tracks {
		if (t.aHost == a && (b == "" || t.bHost == b)) || (t.bHost == a && (b == "" || t.aHost == b)) {
			victims = append(victims, t.dial)
		}
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.Abort(reason)
	}
	return len(victims)
}

// CutHost takes a host off the fabric: every live connection touching it is
// aborted with ErrHostDown and new dials to or from it are refused until
// HealHost. Returns the number of connections aborted.
func (f *Fabric) CutHost(name string) int {
	f.mu.Lock()
	if f.downHosts == nil {
		f.downHosts = make(map[string]struct{})
	}
	f.downHosts[name] = struct{}{}
	f.mu.Unlock()
	return f.abortMatching(name, "", ErrHostDown)
}

// HealHost re-admits a host cut with CutHost. Existing aborted connections
// stay dead; new dials succeed.
func (f *Fabric) HealHost(name string) {
	f.mu.Lock()
	delete(f.downHosts, name)
	f.mu.Unlock()
}

// CutLink aborts every live connection between two hosts with ErrConnReset
// without blocking future dials — a transient blip: the victim observes a
// reset and may reconnect immediately. Returns the number aborted.
func (f *Fabric) CutLink(a, b string) int {
	return f.abortMatching(a, b, ErrConnReset)
}

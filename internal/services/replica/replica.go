// Package replica implements the data reliability case study (Section
// V-B3): a tenant-defined replica dispatch service. Writes are copied to
// every replica volume in a strictly identical order; reads alternate over
// the available replicas, aggregating their throughput; an unresponsive
// replica is evicted from future operations and its unfinished reads are
// re-served from another active replica.
package replica

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/blockdev"
)

// ErrAllReplicasFailed reports that no replica remains to serve I/O.
var ErrAllReplicasFailed = errors.New("replica: all replicas failed")

// State describes one replica's health.
type State struct {
	Name  string
	Alive bool
	// LastErr is the error that evicted the replica.
	LastErr error
	// Reads/Writes count operations served.
	Reads  int64
	Writes int64
}

type member struct {
	name    string
	dev     blockdev.Device
	alive   bool
	lastErr error
	reads   int64
	writes  int64
}

// Dispatcher is the replica fan-out device.
type Dispatcher struct {
	mu      sync.Mutex
	members []*member
	next    int

	// writeMu serializes writes so every replica sees one order. Flush and
	// Close take it too: a sync or teardown concurrent with an in-flight
	// fan-out must not observe a replica the write hasn't reached yet.
	writeMu sync.Mutex
}

var _ blockdev.Device = (*Dispatcher)(nil)

// New builds a dispatcher over the given replicas (at least one). All
// replicas must share the primary's geometry.
func New(primary blockdev.Device, extras ...NamedDevice) (*Dispatcher, error) {
	if primary == nil {
		return nil, errors.New("replica: primary device required")
	}
	d := &Dispatcher{}
	d.members = append(d.members, &member{name: "primary", dev: primary, alive: true})
	for _, e := range extras {
		if e.Dev.BlockSize() != primary.BlockSize() || e.Dev.Blocks() != primary.Blocks() {
			return nil, fmt.Errorf("replica: %q geometry %d/%d differs from primary %d/%d",
				e.Name, e.Dev.BlockSize(), e.Dev.Blocks(), primary.BlockSize(), primary.Blocks())
		}
		d.members = append(d.members, &member{name: e.Name, dev: e.Dev, alive: true})
	}
	return d, nil
}

// NamedDevice pairs a replica volume with a diagnostic name.
type NamedDevice struct {
	Name string
	Dev  blockdev.Device
}

// States returns each replica's health and counters.
func (d *Dispatcher) States() []State {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]State, len(d.members))
	for i, m := range d.members {
		out[i] = State{Name: m.name, Alive: m.alive, LastErr: m.lastErr, Reads: m.reads, Writes: m.writes}
	}
	return out
}

// evict removes a replica from future operations.
func (d *Dispatcher) evict(m *member, err error) {
	d.mu.Lock()
	m.alive = false
	m.lastErr = err
	d.mu.Unlock()
}

// BlockSize implements blockdev.Device.
func (d *Dispatcher) BlockSize() int { return d.members[0].dev.BlockSize() }

// Blocks implements blockdev.Device.
func (d *Dispatcher) Blocks() uint64 { return d.members[0].dev.Blocks() }

// WriteAt copies the write to every live replica. Failing replicas are
// evicted; the write succeeds while at least one replica holds it. The
// write lock guarantees the same sequence ordering on all volumes.
func (d *Dispatcher) WriteAt(p []byte, lba uint64) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()

	live := d.liveMembers()
	if len(live) == 0 {
		return ErrAllReplicasFailed
	}
	// Fan out in parallel; ordering across commands is preserved by the
	// write lock, so each replica sees the identical sequence.
	var wg sync.WaitGroup
	errs := make([]error, len(live))
	for i, m := range live {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			errs[i] = m.dev.WriteAt(p, lba)
		}(i, m)
	}
	wg.Wait()
	ok := 0
	for i, m := range live {
		if errs[i] != nil {
			d.evict(m, errs[i])
			continue
		}
		d.mu.Lock()
		m.writes++
		d.mu.Unlock()
		ok++
	}
	if ok == 0 {
		return fmt.Errorf("%w: last error: %v", ErrAllReplicasFailed, errs[0])
	}
	return nil
}

// ReadAt serves the read from one replica, chosen round-robin; on failure
// the replica is evicted and the read retries on the next one — the
// unfinished read re-served from an active replica.
func (d *Dispatcher) ReadAt(p []byte, lba uint64) error {
	for {
		m := d.pick()
		if m == nil {
			return ErrAllReplicasFailed
		}
		err := m.dev.ReadAt(p, lba)
		if err == nil {
			d.mu.Lock()
			m.reads++
			d.mu.Unlock()
			return nil
		}
		d.evict(m, err)
	}
}

// pick returns the next live replica round-robin.
func (d *Dispatcher) pick() *member {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.members)
	for i := 0; i < n; i++ {
		m := d.members[(d.next+i)%n]
		if m.alive {
			d.next = (d.next + i + 1) % n
			return m
		}
	}
	return nil
}

func (d *Dispatcher) liveMembers() []*member {
	d.mu.Lock()
	defer d.mu.Unlock()
	var live []*member
	for _, m := range d.members {
		if m.alive {
			live = append(live, m)
		}
	}
	return live
}

// Flush syncs all live replicas. It holds the write lock so a sync cannot
// slip between a fan-out's landing on one replica and another — every
// replica is synced at the same write boundary.
func (d *Dispatcher) Flush() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	live := d.liveMembers()
	if len(live) == 0 {
		return ErrAllReplicasFailed
	}
	ok := 0
	for _, m := range live {
		if err := m.dev.Flush(); err != nil {
			d.evict(m, err)
			continue
		}
		ok++
	}
	if ok == 0 {
		return ErrAllReplicasFailed
	}
	return nil
}

// Close closes every replica, reporting the first error. The write lock
// orders it after any in-flight fan-out.
func (d *Dispatcher) Close() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	var first error
	for _, m := range members {
		if err := m.dev.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

package blockdev

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtime"
)

// ServiceModel describes the simulated service time of a storage host's
// medium, applied per request by LatencyDisk.
type ServiceModel struct {
	// PerRequest is the fixed cost of any medium access (seek/queue).
	PerRequest time.Duration
	// PerByte is the streaming cost per transferred byte.
	PerByte time.Duration
}

// Cost returns the modelled service time for a transfer of n bytes.
func (m ServiceModel) Cost(n int) time.Duration {
	return m.PerRequest + time.Duration(n)*m.PerByte
}

// LatencyDisk wraps a Device and sleeps for the modelled service time on
// each access, emulating a real medium on the simulated storage host.
// Reads and writes may carry different models: targets typically absorb
// writes into a write cache (cheap) while reads miss to the medium.
type LatencyDisk struct {
	dev   Device
	read  ServiceModel
	write ServiceModel
	// slots bounds concurrent medium accesses (nil = unlimited): a real
	// device serves a limited number of outstanding commands, so load
	// queues endogenously.
	slots chan struct{}
}

var _ Device = (*LatencyDisk)(nil)

// NewLatencyDiskQueued wraps dev with separate read and write models and a
// bounded queue of concurrent medium accesses (concurrency <= 0: unbounded);
// excess requests wait.
func NewLatencyDiskQueued(dev Device, read, write ServiceModel, concurrency int) *LatencyDisk {
	d := &LatencyDisk{dev: dev, read: read, write: write}
	if concurrency > 0 {
		d.slots = make(chan struct{}, concurrency)
	}
	return d
}

// acquire takes a device queue slot when concurrency is bounded.
func (d *LatencyDisk) acquire() func() {
	if d.slots == nil {
		return func() {}
	}
	d.slots <- struct{}{}
	return func() { <-d.slots }
}

// BlockSize implements Device.
func (d *LatencyDisk) BlockSize() int { return d.dev.BlockSize() }

// Blocks implements Device.
func (d *LatencyDisk) Blocks() uint64 { return d.dev.Blocks() }

// ReadAt implements Device, charging the modelled service time.
func (d *LatencyDisk) ReadAt(p []byte, lba uint64) error {
	release := d.acquire()
	defer release()
	sleep(d.read.Cost(len(p)))
	return d.dev.ReadAt(p, lba)
}

// WriteAt implements Device, charging the modelled service time.
func (d *LatencyDisk) WriteAt(p []byte, lba uint64) error {
	release := d.acquire()
	defer release()
	sleep(d.write.Cost(len(p)))
	return d.dev.WriteAt(p, lba)
}

// Flush implements Device.
func (d *LatencyDisk) Flush() error { return d.dev.Flush() }

// Close implements Device.
func (d *LatencyDisk) Close() error { return d.dev.Close() }

func sleep(d time.Duration) {
	simtime.Sleep(d)
}

// FaultDisk wraps a Device and fails all accesses once tripped; the
// replication experiments use it to take one replica offline mid-run
// (Figure 13's injected error at the 60th second).
type FaultDisk struct {
	dev     Device
	tripped atomic.Bool
	err     error
	mu      sync.Mutex
}

var _ Device = (*FaultDisk)(nil)

// NewFaultDisk wraps dev; the device operates normally until Trip is called.
func NewFaultDisk(dev Device) *FaultDisk {
	return &FaultDisk{dev: dev}
}

// Trip makes every subsequent access fail with err.
func (d *FaultDisk) Trip(err error) {
	d.mu.Lock()
	d.err = err
	d.mu.Unlock()
	d.tripped.Store(true)
}

// Heal clears a tripped fault; subsequent accesses reach the medium again
// (the recovery half of Figure 13's kill/heal cycle).
func (d *FaultDisk) Heal() {
	d.tripped.Store(false)
	d.mu.Lock()
	d.err = nil
	d.mu.Unlock()
}

func (d *FaultDisk) fault() error {
	if !d.tripped.Load() {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// BlockSize implements Device.
func (d *FaultDisk) BlockSize() int { return d.dev.BlockSize() }

// Blocks implements Device.
func (d *FaultDisk) Blocks() uint64 { return d.dev.Blocks() }

// ReadAt implements Device.
func (d *FaultDisk) ReadAt(p []byte, lba uint64) error {
	if err := d.fault(); err != nil {
		return err
	}
	return d.dev.ReadAt(p, lba)
}

// WriteAt implements Device.
func (d *FaultDisk) WriteAt(p []byte, lba uint64) error {
	if err := d.fault(); err != nil {
		return err
	}
	return d.dev.WriteAt(p, lba)
}

// Flush implements Device.
func (d *FaultDisk) Flush() error {
	if err := d.fault(); err != nil {
		return err
	}
	return d.dev.Flush()
}

// Close implements Device.
func (d *FaultDisk) Close() error { return d.dev.Close() }

// CountingDisk wraps a Device and counts successful reads and writes, the
// probe tests use to see what reached a device.
type CountingDisk struct {
	Device
	reads  atomic.Int64
	writes atomic.Int64
}

var _ Device = (*CountingDisk)(nil)

// NewCountingDisk wraps dev with counters.
func NewCountingDisk(dev Device) *CountingDisk {
	return &CountingDisk{Device: dev}
}

// Reads returns the number of read requests.
func (d *CountingDisk) Reads() int64 { return d.reads.Load() }

// Writes returns the number of write requests.
func (d *CountingDisk) Writes() int64 { return d.writes.Load() }

// ReadAt implements Device.
func (d *CountingDisk) ReadAt(p []byte, lba uint64) error {
	err := d.Device.ReadAt(p, lba)
	if err == nil {
		d.reads.Add(1)
	}
	return err
}

// WriteAt implements Device.
func (d *CountingDisk) WriteAt(p []byte, lba uint64) error {
	err := d.Device.WriteAt(p, lba)
	if err == nil {
		d.writes.Add(1)
	}
	return err
}

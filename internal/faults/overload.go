package faults

import (
	"sync"
	"time"

	"repro/internal/xerr"
)

// ErrDiskFull is the injected out-of-space failure a DiskFull quota
// surfaces once its byte budget is spent. It is classed Exhausted: callers
// must reclaim or release space before retrying.
var ErrDiskFull = xerr.New(xerr.Exhausted, "faults: injected disk full")

// DiskFull simulates a filesystem running out of space: a byte quota that
// write paths consume against and release back to as segments are
// reclaimed. Wire its Consume into a WAL's space check (wal.Options.Quota)
// to drive ENOSPC scenarios deterministically — no real disk filling, no
// tmpfs tricks, identical behavior under -race.
type DiskFull struct {
	mu    sync.Mutex
	quota uint64
	used  uint64
}

// NewDiskFull builds a quota of the given byte budget. A zero budget means
// every consume fails — a disk that is full from the start.
func NewDiskFull(quota uint64) *DiskFull {
	return &DiskFull{quota: quota}
}

// Consume charges n bytes against the quota, returning ErrDiskFull (and
// charging nothing) when the budget can't cover it.
func (d *DiskFull) Consume(n uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+n > d.quota {
		return ErrDiskFull
	}
	d.used += n
	return nil
}

// Release returns n bytes to the budget — the reclaim half, called when a
// segment is deleted or a chunk slot freed.
func (d *DiskFull) Release(n uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > d.used {
		n = d.used
	}
	d.used -= n
}

// Grow widens the quota by n bytes: "the operator added disk", the pressure-
// release step overload scenarios end with.
func (d *DiskFull) Grow(n uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.quota += n
}

// SlowBackend is a token-bucket pacer that turns a healthy component into a
// brownout: each operation of n bytes must draw n tokens, and the bucket
// refills at Rate bytes/sec up to Burst. Callers sleep for the returned
// duration before proceeding, so a wrapped backend answers correctly but
// slowly — the "1 slow of 3" scenario where nothing is down yet everything
// is late. The zero value is a no-op pacer (Delay always 0).
type SlowBackend struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewSlowBackend builds a pacer refilling at rate bytes/sec with the given
// burst ceiling. rate <= 0 disables pacing.
func NewSlowBackend(rate float64, burst float64) *SlowBackend {
	if burst < 1 {
		burst = 1
	}
	return &SlowBackend{rate: rate, burst: burst, tokens: burst}
}

// Delay draws n tokens and returns how long the caller must wait for the
// bucket to cover the draw. The bucket may go negative — that debt delays
// subsequent callers, which is exactly how a saturated device behaves.
func (p *SlowBackend) Delay(n int) time.Duration {
	if p == nil || p.rate <= 0 || n <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if !p.last.IsZero() {
		p.tokens += now.Sub(p.last).Seconds() * p.rate
		if p.tokens > p.burst {
			p.tokens = p.burst
		}
	}
	p.last = now
	p.tokens -= float64(n)
	if p.tokens >= 0 {
		return 0
	}
	return time.Duration(-p.tokens / p.rate * float64(time.Second))
}

// Pace draws n tokens and sleeps out the resulting delay — the convenience
// wrapper slow-backend injection sites call inline.
func (p *SlowBackend) Pace(n int) {
	if d := p.Delay(n); d > 0 {
		time.Sleep(d)
	}
}

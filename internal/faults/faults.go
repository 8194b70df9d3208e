// Package faults provides the shared plumbing for deterministic failure
// injection across the data path: a logical-event schedule that fires faults
// at exact points in a workload (never at wall-clock times, so chaos runs
// replay identically under -race and on loaded machines), and a capped
// exponential backoff with seeded jitter used by every reconnect loop
// (MC/S reattach, write-back reopen, replicate retries).
//
// The schedule's clock is the workload itself: each data-path event of
// interest (an I/O admitted, a command issued) calls Step, and triggers
// registered At a tick run when the clock reaches them. Components under
// test expose fault controls (netsim's CutHost/CutLink, blockdev's
// FaultDisk.Trip/Heal, volume.InjectFault); tests bind those controls to
// schedule ticks.
package faults

import (
	"math/rand"
	"sync"
	"time"
)

// trigger is one scheduled fault action.
type trigger struct {
	at   uint64
	name string
	fn   func()
}

// Schedule fires registered actions at logical ticks. The zero tick is
// "before any event"; the first Step advances the clock to 1. Safe for
// concurrent use: concurrent steppers serialize, and each due trigger runs
// exactly once, outside the schedule lock.
type Schedule struct {
	mu    sync.Mutex
	now   uint64
	trig  []trigger
	fired []string
}

// NewSchedule creates an empty schedule at tick 0.
func NewSchedule() *Schedule { return &Schedule{} }

// At registers fn to run when the clock reaches tick. Triggers sharing a
// tick run in registration order. Registering a tick the clock has already
// passed runs the trigger on the next Step.
func (s *Schedule) At(tick uint64, name string, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trig = append(s.trig, trigger{at: tick, name: name, fn: fn})
}

// Step advances the clock by one event and runs every due trigger.
func (s *Schedule) Step() {
	s.mu.Lock()
	s.now++
	now := s.now
	var due []trigger
	w := 0
	for _, t := range s.trig {
		if t.at <= now {
			due = append(due, t)
			s.fired = append(s.fired, t.name)
		} else {
			s.trig[w] = t
			w++
		}
	}
	s.trig = s.trig[:w]
	s.mu.Unlock()
	for _, t := range due {
		t.fn()
	}
}

// Now returns the current logical tick.
func (s *Schedule) Now() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Fired returns the names of triggers that have run, in firing order.
func (s *Schedule) Fired() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.fired...)
}

// CrashPoint derives a deterministic logical tick in [lo, hi) from a seed:
// the arbitrary-but-reproducible "kill the process here" point crash tests
// sweep. Distinct seeds spread across the range; the same seed always
// lands on the same tick.
func CrashPoint(seed int64, lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	rng := rand.New(rand.NewSource(seed))
	return lo + uint64(rng.Int63n(int64(hi-lo)))
}

// Crash registers kill on sched at a seed-chosen tick in [lo, hi) and
// returns the chosen tick. The kill runs mid-workload, after the event
// that advances the clock to the tick — a process dying between two
// acknowledged operations.
func Crash(sched *Schedule, seed int64, lo, hi uint64, kill func()) uint64 {
	tick := CrashPoint(seed, lo, hi)
	sched.At(tick, "crash", kill)
	return tick
}

// Backoff computes capped exponential delays with deterministic jitter:
// attempt n waits in [d/2, d) where d = min(Base·2ⁿ, Cap), the half-range
// drawn from a seeded generator so a given seed always produces the same
// delay sequence. The zero value is unusable; construct with NewBackoff.
type Backoff struct {
	base time.Duration
	cap  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff builds a backoff policy. base is the attempt-0 delay, cap the
// ceiling; seed fixes the jitter sequence.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the wait before retry attempt (0-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	b.mu.Lock()
	j := time.Duration(b.rng.Int63n(int64(half)))
	b.mu.Unlock()
	return half + j
}

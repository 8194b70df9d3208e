package obs

import (
	"sync"
	"time"
)

// CPUAccount tracks simulated CPU busy-time per named component on a host.
// The Figure 10 breakdown divides busy time by wall time to obtain a
// utilization percentage per host. All methods are safe for concurrent use.
type CPUAccount struct {
	mu    sync.Mutex
	busy  map[string]time.Duration
	start time.Time
}

// NewCPUAccount returns an account whose observation window starts now.
func NewCPUAccount() *CPUAccount {
	return &CPUAccount{busy: make(map[string]time.Duration), start: time.Now()}
}

// Charge adds d of busy time to the named component.
func (a *CPUAccount) Charge(component string, d time.Duration) {
	if d <= 0 {
		return
	}
	a.mu.Lock()
	if a.busy == nil {
		a.busy = make(map[string]time.Duration)
	}
	a.busy[component] += d
	a.mu.Unlock()
}

// Busy returns the accumulated busy time for the named component.
func (a *CPUAccount) Busy(component string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.busy[component]
}

// Utilization returns busy/wall for the named component over the window
// [start, now], as a fraction in [0, +inf). A zero-length (or
// never-started) window yields 0.
func (a *CPUAccount) Utilization(component string) float64 {
	return rate(float64(a.Busy(component)), a.start) / float64(time.Second)
}

// rate is the zero-length-window guard for Utilization: a zero start time
// or non-positive elapsed window yields 0 rather than Inf/NaN.
func rate(total float64, start time.Time) float64 {
	if start.IsZero() {
		return 0
	}
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	return total / el
}

// Components returns a copy of the per-component busy-time map.
func (a *CPUAccount) Components() map[string]time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]time.Duration, len(a.busy))
	for k, v := range a.busy {
		out[k] = v
	}
	return out
}

// Reset clears all accumulated busy time and restarts the window.
func (a *CPUAccount) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.busy = make(map[string]time.Duration)
	a.start = time.Now()
}

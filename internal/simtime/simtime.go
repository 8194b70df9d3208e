// Package simtime provides a high-precision sleep for the simulation's
// latency models. Container kernels frequently round timer sleeps up to a
// coarse tick (~1 ms), which would swamp the microsecond-scale path costs
// the fabric models; Sleep burns the final stretch in a yielding spin so
// concurrent modelled delays stay accurate and overlap correctly even on a
// single CPU.
package simtime

import (
	"runtime"
	"time"
)

// coarse is the slack subtracted before the blocking sleep: the kernel may
// overshoot a timer by up to roughly this much.
const coarse = 2 * time.Millisecond

// Sleep pauses the calling goroutine for at least d, with microsecond-level
// precision. Delays longer than the coarse tick sleep for the bulk and spin
// (yielding the processor each iteration) for the remainder, so other
// goroutines keep running.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	if d > coarse {
		time.Sleep(d - coarse)
	}
	for time.Since(start) < d {
		runtime.Gosched()
	}
}

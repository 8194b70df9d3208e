package main

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

var errIntegrity = errors.New("bench: read does not match the last acknowledged write")

// sample is what one timed window yields.
type sample struct {
	wall              time.Duration
	ops, failed       int64
	writeNs, readNs   []int64 // sorted once reduced
	cpu               time.Duration
	mallocs           uint64
	writeP50, readP50 float64 // µs
	iops, cpuPerOp    float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// collect runs one timed window of the rig and takes its raw samples.
// Nothing is computed yet: back-to-back windows must leave no gap a chain
// with deferred work (replicate_4k drains behind its early acks) could
// catch up in.
func collect(r *rig, d time.Duration) sample {
	for _, rec := range r.recs {
		rec.reset()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	wall := r.run(d)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	s := sample{wall: wall, cpu: cpu1 - cpu0, mallocs: ms1.Mallocs - ms0.Mallocs}
	for _, rec := range r.recs {
		s.writeNs = append(s.writeNs, rec.writeNs...)
		s.readNs = append(s.readNs, rec.readNs...)
		s.failed += rec.failed
	}
	s.ops = int64(len(s.writeNs) + len(s.readNs))
	return s
}

// reduce computes the window's statistics from its raw samples.
func (s *sample) reduce() {
	slices.Sort(s.writeNs)
	slices.Sort(s.readNs)
	s.writeP50 = percentile(s.writeNs, 0.5) / 1e3
	s.readP50 = percentile(s.readNs, 0.5) / 1e3
	if s.ops > 0 {
		s.iops = float64(s.ops) / s.wall.Seconds()
		s.cpuPerOp = float64(s.cpu.Microseconds()) / float64(s.ops)
	}
}

// window is one window on its own, reduced.
func window(r *rig, d time.Duration) sample {
	s := collect(r, d)
	s.reduce()
	return s
}

// windows are n windows of d back to back, starting from a collected heap.
func windows(r *rig, d time.Duration, n int) []sample {
	runtime.GC()
	out := make([]sample, max(1, n))
	for i := range out {
		out[i] = collect(r, d)
	}
	for i := range out {
		out[i].reduce()
	}
	return out
}

// fastest returns the eighth of the windows with the most ops, at least
// one. On shared vCPUs the host slows whole seconds of a run, always in the
// one direction, so the fastest windows are what the program does when it
// is left alone: over eight runs of mem_4k the median of all windows spread
// twice as far from run to run as the median of the fastest eighth. A change
// to the program moves every window, so it still shows.
func fastest(samples []sample) []sample {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].iops > s[j].iops })
	return s[:max(1, len(s)/8)]
}

// percentile reads quantile q from sorted v (nearest rank); 0 when empty.
func percentile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i])
}

// tail returns the highest of p90, p99, p99.9, p99.99 that still has at
// least ten samples beyond it, with the quantile chosen.
func tail(v []int64) (value, q float64) {
	q = 0.9
	for _, c := range []float64{0.99, 0.999, 0.9999} {
		if float64(len(v))*(1-c) >= 10 {
			q = c
		}
	}
	return percentile(v, q), q
}

// spread summarises a set of values.
type spread struct{ median, min, max float64 }

func spreadOf(v []float64) spread {
	if len(v) == 0 {
		return spread{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return spread{median: median(s), min: s[0], max: s[len(s)-1]}
}

// median of sorted s.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

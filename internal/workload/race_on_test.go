//go:build race

package workload

// raceEnabled reports a build with the race detector, whose own overhead
// swamps the few percent the overhead tests bound.
const raceEnabled = true

package workload

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/obs"
)

// TestTracingOverheadOnFioHotPath bounds the cost of the observability
// instrumentation on the fio hot path: the same workload against the same
// modelled disk, bare versus wrapped in an ObservedDisk recording every
// request into stage histograms, must not slow down by more than ~5%.
// The modelled service time (~100µs/request) dominates; the probe adds one
// time.Now plus one histogram observation (~hundreds of ns).
func TestTracingOverheadOnFioHotPath(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	run := func(dev blockdev.Device) time.Duration {
		res, err := RunFio(FioConfig{
			Dev:          dev,
			RequestSize:  4096,
			Threads:      2,
			ReadFraction: 0.5,
			Ops:          400,
			Seed:         7,
		})
		if err != nil {
			t.Fatalf("RunFio: %v", err)
		}
		return res.Elapsed
	}
	newDisk := func() blockdev.Device {
		mem, err := blockdev.NewMemDisk(512, 8192)
		if err != nil {
			t.Fatal(err)
		}
		return blockdev.NewLatencyDiskQueued(mem, blockdev.ServiceModel{PerRequest: 100 * time.Microsecond}, blockdev.ServiceModel{PerRequest: 100 * time.Microsecond}, 0)
	}

	// Warm up scheduling and caches once before timing.
	run(newDisk())

	reg := obs.NewRegistry()
	// Generous slack over the ~5% budget to keep the test robust on loaded
	// CI machines; the true instrumentation cost is well under 1%.
	requireOverheadWithin(t, 1.10,
		func() time.Duration { return run(newDisk()) },
		func() time.Duration { return run(blockdev.NewObservedDisk(newDisk(), reg, "overhead")) })
	if n := reg.Histogram(obs.StagePrefix + "overhead.read").Snapshot().Count; n == 0 {
		t.Fatal("traced run recorded no observations")
	}
}

// requireOverheadWithin times bare and probed alternately and compares the
// fastest run of each, which filters scheduler noise out of the ratio. What
// it cannot filter is the host slowing every run of one side: on a loaded
// box identical code has measured 1.08 and 1.13. A real overhead shows in
// every attempt and a busy host does not, so the comparison fails only
// after three attempts over the limit. Under the race detector the ratio is
// only logged: the detector's own overhead swamps a few percent (identical
// code has read 0.80–1.34 there), so the caller's functional check is what a
// race build runs.
func requireOverheadWithin(t *testing.T, limit float64, bare, probed func() time.Duration) {
	t.Helper()
	const attempts = 3
	var ratio float64
	for a := 1; a <= attempts; a++ {
		minBare, minProbed := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 5; i++ {
			minBare = min(minBare, bare())
			minProbed = min(minProbed, probed())
		}
		ratio = float64(minProbed) / float64(minBare)
		t.Logf("bare=%v probed=%v ratio=%.3f", minBare, minProbed, ratio)
		if ratio <= limit {
			return
		}
		if raceEnabled {
			t.Logf("ratio %.3f over %.2f not enforced under the race detector", ratio, limit)
			return
		}
	}
	t.Errorf("overhead ratio = %.3f in each of %d attempts, want <= %.2f", ratio, attempts, limit)
}

// Package workload implements the paper's benchmark drivers: a Fio-like
// block I/O micro-benchmark (request-size and thread sweeps, mixed random
// read/write), a PostMark-like small-file workload, an FTP-like streaming
// transfer, and a Sysbench-like OLTP driver against minidb. Each reports
// the same metrics the evaluation section plots.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/obs"
)

// FioConfig mirrors the paper's fio invocations: vary the I/O request size
// (the amount of data read/written per transaction) and the parallelism
// (the number of threads issuing I/O simultaneously).
type FioConfig struct {
	// Dev is the device under test (must be safe for concurrent use).
	Dev blockdev.Device
	// RequestSize is the bytes per I/O (must be a block multiple).
	RequestSize int
	// Threads is the number of concurrent submitters (default 1).
	Threads int
	// ReadFraction is the read share of the mix (0.5 = the paper's 50/50
	// random read/write pattern).
	ReadFraction float64
	// Ops is the total operation count across all threads.
	Ops int
	// Seed makes runs reproducible.
	Seed int64
	// SpanBlocks restricts the access range (0 = whole device).
	SpanBlocks uint64
}

// FioResult aggregates one run.
type FioResult struct {
	Ops      int
	Reads    int
	Writes   int
	Bytes    int64
	Elapsed  time.Duration
	IOPS     float64
	MBps     float64
	Latency  obs.Summary
	ReadLat  obs.Summary
	WriteLat obs.Summary
}

// String renders the headline numbers.
func (r *FioResult) String() string {
	return fmt.Sprintf("fio: %d ops in %v = %.0f IOPS, %.1f MB/s, mean lat %v",
		r.Ops, r.Elapsed.Round(time.Millisecond), r.IOPS, r.MBps, r.Latency.Mean)
}

// RunFio executes the workload and reports aggregate results.
func RunFio(cfg FioConfig) (*FioResult, error) {
	if cfg.Dev == nil {
		return nil, fmt.Errorf("workload: fio needs a device")
	}
	bs := cfg.Dev.BlockSize()
	if cfg.RequestSize <= 0 || cfg.RequestSize%bs != 0 {
		return nil, fmt.Errorf("workload: request size %d is not a multiple of block size %d", cfg.RequestSize, bs)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 100
	}
	span := cfg.SpanBlocks
	if span == 0 {
		span = cfg.Dev.Blocks()
	}
	blocksPerOp := uint64(cfg.RequestSize / bs)
	if span < blocksPerOp {
		return nil, fmt.Errorf("workload: span %d blocks < request of %d blocks", span, blocksPerOp)
	}
	maxStart := span - blocksPerOp

	var (
		all, readLat, writeLat obs.Histogram
		mu                     sync.Mutex
		firstErr               error
	)
	opsPerThread := cfg.Ops / cfg.Threads
	if opsPerThread == 0 {
		opsPerThread = 1
	}

	start := time.Now()
	var wg sync.WaitGroup
	for tIdx := 0; tIdx < cfg.Threads; tIdx++ {
		wg.Add(1)
		go func(tIdx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(tIdx)*7919))
			buf := make([]byte, cfg.RequestSize)
			for i := 0; i < opsPerThread; i++ {
				lba := uint64(rng.Int63n(int64(maxStart + 1)))
				// Align to the request size for a realistic random map.
				lba -= lba % blocksPerOp
				isRead := rng.Float64() < cfg.ReadFraction
				t0 := time.Now()
				var err error
				if isRead {
					err = cfg.Dev.ReadAt(buf, lba)
				} else {
					rng.Read(buf[:min(64, len(buf))]) // cheap variation
					err = cfg.Dev.WriteAt(buf, lba)
				}
				lat := time.Since(t0)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				all.Observe(lat)
				if isRead {
					readLat.Observe(lat)
				} else {
					writeLat.Observe(lat)
				}
			}
		}(tIdx)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, fmt.Errorf("workload: fio I/O failed: %w", firstErr)
	}

	res := &FioResult{
		Elapsed:  elapsed,
		Latency:  all.Snapshot(),
		ReadLat:  readLat.Snapshot(),
		WriteLat: writeLat.Snapshot(),
	}
	res.Reads, res.Writes = res.ReadLat.Count, res.WriteLat.Count
	res.Ops = res.Reads + res.Writes
	res.Bytes = int64(res.Ops) * int64(cfg.RequestSize)
	if sec := elapsed.Seconds(); sec > 0 {
		res.IOPS = float64(res.Ops) / sec
		res.MBps = float64(res.Bytes) / sec / (1 << 20)
	}
	return res, nil
}

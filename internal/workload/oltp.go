package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/minidb"
)

// OLTPConfig mirrors the Sysbench complex-mode run of Figure 12/13: client
// threads issue mixed read/write transactions against the database server.
type OLTPConfig struct {
	DB *minidb.DB
	// Rows is the preloaded table size (default 1000).
	Rows int
	// Threads is the total requesting threads across all client VMs
	// (the paper: 4 VMs x 6 threads).
	Threads int
	// Duration bounds the run.
	Duration time.Duration
	// Bucket is the TPS sampling interval for the Figure 13 timeline
	// (default Duration/20).
	Bucket time.Duration
	// Seed makes runs reproducible.
	Seed int64
}

// OLTPResult holds the throughput timeline.
type OLTPResult struct {
	Transactions int64
	Elapsed      time.Duration
	TPS          float64
	// Timeline is transactions-per-second per bucket.
	Timeline []float64
	// Errors counts failed transactions (tolerated during failover).
	Errors int64
}

// String renders the headline number.
func (r *OLTPResult) String() string {
	return fmt.Sprintf("oltp: %d tx in %v = %.0f TPS (%d errors)",
		r.Transactions, r.Elapsed.Round(time.Millisecond), r.TPS, r.Errors)
}

// RunOLTP executes the workload.
func RunOLTP(cfg OLTPConfig) (*OLTPResult, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("workload: oltp needs a database")
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 1000
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 6
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = cfg.Duration / 20
	}
	db := cfg.DB
	row := make([]byte, 100)
	for i := 0; i < cfg.Rows; i++ {
		row[0] = byte(i)
		if err := db.Put(uint64(i+1), row); err != nil {
			return nil, fmt.Errorf("workload: oltp preload: %w", err)
		}
	}

	nBuckets := int(cfg.Duration/cfg.Bucket) + 1
	buckets := make([]atomic.Int64, nBuckets)
	var (
		txCount atomic.Int64
		errs    atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for tIdx := 0; tIdx < cfg.Threads; tIdx++ {
		wg.Add(1)
		go func(tIdx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(tIdx)*104729))
			row := make([]byte, 100)
			for time.Now().Before(deadline) {
				if err := oneTransaction(db, rng, cfg.Rows, row); err != nil {
					errs.Add(1)
					if errors.Is(err, minidb.ErrCorrupt) {
						return
					}
					continue
				}
				txCount.Add(1)
				b := int(time.Since(start) / cfg.Bucket)
				if b >= 0 && b < nBuckets {
					buckets[b].Add(1)
				}
			}
		}(tIdx)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &OLTPResult{
		Transactions: txCount.Load(),
		Elapsed:      elapsed,
		Errors:       errs.Load(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.TPS = float64(res.Transactions) / sec
	}
	perBucket := cfg.Bucket.Seconds()
	for i := range buckets {
		res.Timeline = append(res.Timeline, float64(buckets[i].Load())/perBucket)
	}
	return res, nil
}

// oneTransaction is the Sysbench complex-mode shape: ten point selects,
// one range select, one update, one insert-equivalent, one delete-
// equivalent (modelled as a rewrite to keep the table dense).
func oneTransaction(db *minidb.DB, rng *rand.Rand, rows int, scratch []byte) error {
	id := func() uint64 { return uint64(rng.Intn(rows) + 1) }
	for i := 0; i < 10; i++ {
		if _, err := db.Get(id()); err != nil && !errors.Is(err, minidb.ErrRowNotFound) {
			return err
		}
	}
	if _, err := db.RangeScan(id(), 10); err != nil {
		return err
	}
	rng.Read(scratch[:16])
	if err := db.Put(id(), scratch); err != nil {
		return err
	}
	if err := db.Put(id(), scratch); err != nil {
		return err
	}
	if err := db.Delete(id()); err != nil && !errors.Is(err, minidb.ErrRowNotFound) {
		return err
	}
	return nil
}

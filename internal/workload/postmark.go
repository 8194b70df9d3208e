package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/extfs"
)

// PostmarkConfig mirrors the PostMark mail-server workload used in the
// Figure 11 comparison: a pool of small files receives a stream of
// transactions mixing reads, appends, creations, and deletions.
type PostmarkConfig struct {
	FS *extfs.FS
	// Files is the initial pool size (default 100).
	Files int
	// Transactions is the number of transactions (default 200).
	Transactions int
	// Seed makes runs reproducible.
	Seed int64
}

// A PostMark file's size is drawn from [postmarkMinSize,
// postmarkMinSize+postmarkSizeRange).
const (
	postmarkMinSize   = 512
	postmarkSizeRange = 16 * 1024
)

// PostmarkResult reports the decomposed component rates of Figure 11.
type PostmarkResult struct {
	Elapsed time.Duration

	ReadOps   int
	AppendOps int
	CreateOps int
	DeleteOps int

	ReadBytes  int64
	WriteBytes int64

	// Per-second rates.
	ReadOpsPerSec   float64
	AppendOpsPerSec float64
	CreateOpsPerSec float64
	DeleteOpsPerSec float64
	ReadMBps        float64
	WriteMBps       float64
}

// RunPostmark executes the workload.
func RunPostmark(cfg PostmarkConfig) (*PostmarkResult, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("workload: postmark needs a file system")
	}
	if cfg.Files <= 0 {
		cfg.Files = 100
	}
	if cfg.Transactions <= 0 {
		cfg.Transactions = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fs := cfg.FS

	const dir = "/postmark"
	if err := fs.MkdirAll(dir); err != nil && err != extfs.ErrExists {
		return nil, err
	}
	randSize := func() int { return postmarkMinSize + rng.Intn(postmarkSizeRange) }
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b[:min(256, n)])
		return b
	}

	res := &PostmarkResult{}
	// Pool setup: create the initial file set (counted, as PostMark does).
	var pool []string
	nextFile := 0
	start := time.Now()
	for i := 0; i < cfg.Files; i++ {
		name := fmt.Sprintf("%s/f%06d", dir, nextFile)
		nextFile++
		n := randSize()
		if err := fs.WriteFile(name, payload(n)); err != nil {
			return nil, fmt.Errorf("workload: postmark create: %w", err)
		}
		pool = append(pool, name)
		res.CreateOps++
		res.WriteBytes += int64(n)
	}

	// Transaction phase.
	for i := 0; i < cfg.Transactions; i++ {
		if len(pool) == 0 {
			break
		}
		victim := pool[rng.Intn(len(pool))]
		// Half the transactions touch data (read or append), half churn
		// the namespace (create or delete) — PostMark's default biases.
		if rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				data, err := fs.ReadFile(victim)
				if err != nil {
					return nil, fmt.Errorf("workload: postmark read: %w", err)
				}
				res.ReadOps++
				res.ReadBytes += int64(len(data))
			} else {
				n := randSize() / 4
				if err := fs.Append(victim, payload(n)); err != nil {
					return nil, fmt.Errorf("workload: postmark append: %w", err)
				}
				res.AppendOps++
				res.WriteBytes += int64(n)
			}
			continue
		}
		if rng.Intn(2) == 0 {
			name := fmt.Sprintf("%s/f%06d", dir, nextFile)
			nextFile++
			n := randSize()
			if err := fs.WriteFile(name, payload(n)); err != nil {
				return nil, fmt.Errorf("workload: postmark create: %w", err)
			}
			pool = append(pool, name)
			res.CreateOps++
			res.WriteBytes += int64(n)
		} else {
			idx := rng.Intn(len(pool))
			if err := fs.Remove(pool[idx]); err != nil {
				return nil, fmt.Errorf("workload: postmark delete: %w", err)
			}
			pool[idx] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			res.DeleteOps++
		}
	}
	res.Elapsed = time.Since(start)
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.ReadOpsPerSec = float64(res.ReadOps) / sec
		res.AppendOpsPerSec = float64(res.AppendOps) / sec
		res.CreateOpsPerSec = float64(res.CreateOps) / sec
		res.DeleteOpsPerSec = float64(res.DeleteOps) / sec
		res.ReadMBps = float64(res.ReadBytes) / sec / (1 << 20)
		res.WriteMBps = float64(res.WriteBytes) / sec / (1 << 20)
	}
	return res, nil
}

package workload

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/simtime"
)

// FTPConfig mirrors the Section V-B2 FTP test: a server in the tenant VM
// streams a large file to/from the attached volume. The transfer runs
// directly against the block device in large sequential chunks (the file
// system cache's streaming behaviour).
type FTPConfig struct {
	Dev blockdev.Device
	// FileSize is the transferred size in bytes (default 8 MiB).
	FileSize int64
	// ChunkSize is the streaming granularity (default 256 KiB).
	ChunkSize int
	// RateMBps paces the transfer to a fixed offered load (0 = as fast as
	// possible); CPU-utilization comparisons use a common pace.
	RateMBps float64
}

// FTPResult reports the sustained bandwidth.
type FTPResult struct {
	Bytes   int64
	Elapsed time.Duration
	MBps    float64
}

func (c *FTPConfig) defaults() error {
	if c.Dev == nil {
		return fmt.Errorf("workload: ftp needs a device")
	}
	if c.FileSize <= 0 {
		c.FileSize = 8 << 20
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256 * 1024
	}
	if c.ChunkSize%c.Dev.BlockSize() != 0 {
		return fmt.Errorf("workload: ftp chunk %d not a block multiple", c.ChunkSize)
	}
	if c.FileSize%int64(c.ChunkSize) != 0 {
		c.FileSize = (c.FileSize/int64(c.ChunkSize) + 1) * int64(c.ChunkSize)
	}
	return nil
}

// RunFTPUpload streams data onto the volume (an FTP put).
func RunFTPUpload(cfg FTPConfig) (*FTPResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	chunk := bytes.Repeat([]byte{0x46}, cfg.ChunkSize)
	blocksPerChunk := uint64(cfg.ChunkSize / cfg.Dev.BlockSize())
	start := time.Now()
	var lba uint64
	for sent := int64(0); sent < cfg.FileSize; sent += int64(cfg.ChunkSize) {
		if err := cfg.Dev.WriteAt(chunk, lba); err != nil {
			return nil, fmt.Errorf("workload: ftp upload: %w", err)
		}
		lba += blocksPerChunk
		cfg.pace(start, sent+int64(cfg.ChunkSize))
	}
	if err := cfg.Dev.Flush(); err != nil {
		return nil, err
	}
	return ftpResult(cfg.FileSize, time.Since(start)), nil
}

// RunFTPDownload streams data off the volume (an FTP get).
func RunFTPDownload(cfg FTPConfig) (*FTPResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	buf := make([]byte, cfg.ChunkSize)
	blocksPerChunk := uint64(cfg.ChunkSize / cfg.Dev.BlockSize())
	start := time.Now()
	var lba uint64
	for got := int64(0); got < cfg.FileSize; got += int64(cfg.ChunkSize) {
		if err := cfg.Dev.ReadAt(buf, lba); err != nil {
			return nil, fmt.Errorf("workload: ftp download: %w", err)
		}
		lba += blocksPerChunk
		cfg.pace(start, got+int64(cfg.ChunkSize))
	}
	return ftpResult(cfg.FileSize, time.Since(start)), nil
}

// pace throttles the transfer to the configured rate.
func (c *FTPConfig) pace(start time.Time, transferred int64) {
	if c.RateMBps <= 0 {
		return
	}
	target := time.Duration(float64(transferred) / (c.RateMBps * (1 << 20)) * float64(time.Second))
	if ahead := target - time.Since(start); ahead > 0 {
		simtime.Sleep(ahead)
	}
}

func ftpResult(n int64, el time.Duration) *FTPResult {
	r := &FTPResult{Bytes: n, Elapsed: el}
	if sec := el.Seconds(); sec > 0 {
		r.MBps = float64(n) / sec / (1 << 20)
	}
	return r
}

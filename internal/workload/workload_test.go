package workload

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/extfs"
	"repro/internal/minidb"
)

func testDisk(t *testing.T, blocks uint64) *blockdev.MemDisk {
	t.Helper()
	d, err := blockdev.NewMemDisk(512, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunFioBasic(t *testing.T) {
	dev := testDisk(t, 4096)
	res, err := RunFio(FioConfig{
		Dev:          dev,
		RequestSize:  4096,
		Threads:      2,
		ReadFraction: 0.5,
		Ops:          200,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("RunFio: %v", err)
	}
	if res.Ops != 200 {
		t.Errorf("Ops = %d, want 200", res.Ops)
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Errorf("mix = %d reads / %d writes, want both nonzero", res.Reads, res.Writes)
	}
	if res.IOPS <= 0 || res.Bytes != int64(200*4096) {
		t.Errorf("IOPS=%v Bytes=%d", res.IOPS, res.Bytes)
	}
	if res.Latency.Count != 200 {
		t.Errorf("latency samples = %d", res.Latency.Count)
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestRunFioReproducible(t *testing.T) {
	dev := testDisk(t, 4096)
	run := func() (int, int) {
		res, err := RunFio(FioConfig{Dev: dev, RequestSize: 512, Ops: 100, ReadFraction: 0.5, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res.Reads, res.Writes
	}
	r1, w1 := run()
	r2, w2 := run()
	if r1 != r2 || w1 != w2 {
		t.Errorf("runs differ: %d/%d vs %d/%d", r1, w1, r2, w2)
	}
}

func TestRunFioValidation(t *testing.T) {
	dev := testDisk(t, 64)
	if _, err := RunFio(FioConfig{RequestSize: 512}); err == nil {
		t.Error("nil device: want error")
	}
	if _, err := RunFio(FioConfig{Dev: dev, RequestSize: 100}); err == nil {
		t.Error("unaligned request: want error")
	}
	if _, err := RunFio(FioConfig{Dev: dev, RequestSize: 512 * 128}); err == nil {
		t.Error("request larger than device: want error")
	}
}

func TestRunFioLatencyReflectsDevice(t *testing.T) {
	slow := blockdev.NewLatencyDiskQueued(testDisk(t, 256), blockdev.ServiceModel{PerRequest: 2 * time.Millisecond}, blockdev.ServiceModel{PerRequest: 2 * time.Millisecond}, 0)
	res, err := RunFio(FioConfig{Dev: slow, RequestSize: 512, Ops: 20, ReadFraction: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Mean < time.Millisecond {
		t.Errorf("mean latency %v, want >= ~2ms from the device model", res.Latency.Mean)
	}
	if res.Writes != 0 {
		t.Errorf("ReadFraction=1.0 produced %d writes", res.Writes)
	}
}

func TestRunPostmark(t *testing.T) {
	dev := testDisk(t, 131072) // 64 MiB
	fs, err := extfs.Mkfs(dev, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPostmark(PostmarkConfig{FS: fs, Files: 30, Transactions: 100, Seed: 7})
	if err != nil {
		t.Fatalf("RunPostmark: %v", err)
	}
	if res.CreateOps < 30 {
		t.Errorf("CreateOps = %d, want >= initial pool", res.CreateOps)
	}
	if res.ReadOps+res.AppendOps+res.DeleteOps == 0 {
		t.Error("no transactions recorded")
	}
	if res.ReadOpsPerSec < 0 {
		t.Error("rates malformed")
	}
	// The file system survives the churn.
	if _, err := fs.ReadDir("/postmark"); err != nil {
		t.Errorf("ReadDir after postmark: %v", err)
	}
}

func TestRunPostmarkValidation(t *testing.T) {
	if _, err := RunPostmark(PostmarkConfig{}); err == nil {
		t.Error("nil fs: want error")
	}
}

func TestRunFTPBothDirections(t *testing.T) {
	dev := testDisk(t, 32768) // 16 MiB
	up, err := RunFTPUpload(FTPConfig{Dev: dev, FileSize: 4 << 20, ChunkSize: 64 * 1024})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if up.Bytes != 4<<20 || up.MBps <= 0 {
		t.Errorf("upload = %+v", up)
	}
	down, err := RunFTPDownload(FTPConfig{Dev: dev, FileSize: 4 << 20, ChunkSize: 64 * 1024})
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	if down.Bytes != 4<<20 {
		t.Errorf("download = %+v", down)
	}
}

func TestRunFTPValidation(t *testing.T) {
	if _, err := RunFTPUpload(FTPConfig{}); err == nil {
		t.Error("nil device: want error")
	}
	dev := testDisk(t, 64)
	if _, err := RunFTPUpload(FTPConfig{Dev: dev, ChunkSize: 100}); err == nil {
		t.Error("unaligned chunk: want error")
	}
}

func TestRunFTPRoundsFileSize(t *testing.T) {
	dev := testDisk(t, 32768)
	res, err := RunFTPUpload(FTPConfig{Dev: dev, FileSize: 100000, ChunkSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes%(64*1024) != 0 {
		t.Errorf("Bytes = %d, want chunk multiple", res.Bytes)
	}
}

func TestRunOLTP(t *testing.T) {
	dev := testDisk(t, 16384) // 8 MiB
	db, err := minidb.Open(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOLTP(OLTPConfig{
		DB:       db,
		Rows:     200,
		Threads:  4,
		Duration: 300 * time.Millisecond,
		Bucket:   50 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("RunOLTP: %v", err)
	}
	if res.Transactions == 0 {
		t.Fatal("no transactions completed")
	}
	if res.TPS <= 0 {
		t.Errorf("TPS = %v", res.TPS)
	}
	if len(res.Timeline) == 0 {
		t.Error("no timeline buckets")
	}
	var nonzero int
	for _, v := range res.Timeline {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("timeline all zero")
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestRunOLTPValidation(t *testing.T) {
	if _, err := RunOLTP(OLTPConfig{}); err == nil {
		t.Error("nil db: want error")
	}
}

package experiments

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/scrub"
	"repro/internal/services/replicate"
)

// The backup experiment exercises the content-addressed replication stack
// the way a tenant backup service would: repeated full-image backup rounds
// where only a fraction of chunks changed since the previous round. It
// reports the dedup ratio the content addressing buys on that delta
// workload, the journaled fan-out write throughput across the quorum, and
// proves the scrub service repairs a backend whose stored bytes rotted.

// BackupConfig sizes a backup run.
type BackupConfig struct {
	// Chunks is the logical image size in chunks (default 512).
	Chunks int
	// Rounds is the number of full-image backup generations (default 4).
	Rounds int
	// Backends is the content-addressed replica count (default 3).
	Backends int
	// ChunkBytes is the content-addressing granularity (default 4096).
	ChunkBytes int
	// ModifiedPct is the percentage of chunks whose content changes between
	// consecutive rounds (default 25) — the backup delta.
	ModifiedPct int
}

// BackupRun is one dated backup-suite result.
type BackupRun struct {
	When        string `json:"when"`
	Backends    int    `json:"backends"`
	Quorum      int    `json:"quorum"`
	ChunkBytes  int    `json:"chunk_bytes"`
	Chunks      int    `json:"chunks"`
	Rounds      int    `json:"rounds"`
	ModifiedPct int    `json:"modified_pct"`

	// Dedup: logical bytes ingested vs chunk bytes actually stored, per
	// backend (identical across backends by construction).
	LogicalMB  float64 `json:"logical_mib"`
	StoredMB   float64 `json:"stored_mib"`
	DedupRatio float64 `json:"dedup_ratio"`
	DedupHits  uint64  `json:"dedup_hits"`

	// Fan-out: journaled quorum-acknowledged write throughput, measured
	// over the whole workload including the final drain of every backend.
	WriteMBps float64       `json:"fanout_write_mib_per_s"`
	WriteP99  time.Duration `json:"write_p99_ns"`
	Converged bool          `json:"backends_converged"`

	// Scrub repair after corruption.
	CorruptedChunks int    `json:"corrupted_chunks"`
	ScrubScanned    uint64 `json:"scrub_scanned"`
	ScrubRepaired   uint64 `json:"scrub_repaired"`
	RepairOK        bool   `json:"scrub_repair_ok"`

	// Violations lists failed gates; empty means the suite passed.
	Violations []string `json:"violations,omitempty"`
}

// backupChunk renders the deterministic content of a slot at a generation.
func backupChunk(gen, slot, size int) []byte {
	rng := rand.New(rand.NewSource(int64(gen)*1_000_003 + int64(slot)))
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// RunBackup assembles a replication box over block-backed content stores,
// drives the multi-round backup workload, and evaluates the gates.
func RunBackup(cfg BackupConfig) (*BackupRun, error) {
	if cfg.Chunks <= 0 {
		cfg.Chunks = 512
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 4096
	}
	if cfg.ModifiedPct <= 0 {
		cfg.ModifiedPct = 25
	}
	const bs = 512
	run := &BackupRun{
		Backends:    cfg.Backends,
		Quorum:      cfg.Backends/2 + 1,
		ChunkBytes:  cfg.ChunkBytes,
		Chunks:      cfg.Chunks,
		Rounds:      cfg.Rounds,
		ModifiedPct: cfg.ModifiedPct,
	}

	// The primary image and the content-addressed backends, each on its own
	// block device with the on-disk CAS layout (superblock, slot table,
	// chunk slots) — the same stack the platform attaches per backend
	// volume.
	slots := uint64(cfg.Chunks)
	primary, err := blockdev.NewMemDisk(bs, slots*uint64(cfg.ChunkBytes)/bs)
	if err != nil {
		return nil, err
	}
	devBytes, err := cas.BlockBackendBytes(bs, cfg.ChunkBytes, slots)
	if err != nil {
		return nil, err
	}
	var backends []replicate.NamedStore
	for i := 0; i < cfg.Backends; i++ {
		disk, err := blockdev.NewMemDisk(bs, devBytes/bs)
		if err != nil {
			return nil, err
		}
		be, err := cas.OpenBlockBackend(disk, cfg.ChunkBytes, slots)
		if err != nil {
			return nil, err
		}
		store, err := cas.Open(be, cfg.ChunkBytes, slots)
		if err != nil {
			return nil, err
		}
		backends = append(backends, replicate.NamedStore{Name: fmt.Sprintf("backend%d", i), Store: store})
	}
	walDir, err := os.MkdirTemp("", "storm-backup-wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	box, err := replicate.New(replicate.Config{
		Name:   "bench-backup",
		Quorum: run.Quorum, ChunkSize: cfg.ChunkBytes, WALDir: walDir,
	}, primary, backends)
	if err != nil {
		return nil, err
	}
	defer box.Close()

	// The backup workload: round 0 writes a fully unique image; each later
	// round re-ingests the full image with ModifiedPct of the chunks
	// changed. gen tracks the generation whose content a slot carries.
	bpc := uint64(cfg.ChunkBytes / bs)
	gen := make([]int, cfg.Chunks)
	hist := &obs.Histogram{}
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		for s := 0; s < cfg.Chunks; s++ {
			if r > 0 && (s*31+r*17)%100 < cfg.ModifiedPct {
				gen[s] = r
			}
			t0 := time.Now()
			if err := box.WriteAt(backupChunk(gen[s], s, cfg.ChunkBytes), uint64(s)*bpc); err != nil {
				return nil, fmt.Errorf("backup round %d slot %d: %w", r, s, err)
			}
			hist.Observe(time.Since(t0))
		}
	}
	if err := box.Flush(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for !box.Drained() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("backup: box never drained")
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	st := backends[0].Store.Stats()
	run.LogicalMB = float64(st.BytesLogical) / (1 << 20)
	run.StoredMB = float64(st.BytesStored) / (1 << 20)
	run.DedupRatio = st.DedupRatio()
	run.DedupHits = st.DedupHits
	run.WriteMBps = run.LogicalMB / elapsed.Seconds()
	run.WriteP99 = hist.Percentile(99)

	// Convergence: every backend's logical image must hash identically to
	// the primary's bytes.
	img := make([]byte, slots*uint64(cfg.ChunkBytes))
	for off := uint64(0); off < uint64(len(img)); off += uint64(cfg.ChunkBytes) {
		if err := primary.ReadAt(img[off:off+uint64(cfg.ChunkBytes)], off/bs); err != nil {
			return nil, err
		}
	}
	want := cas.ID(sha256.Sum256(img))
	run.Converged = true
	for _, nb := range backends {
		got, err := nb.Store.LogicalHash()
		if err != nil || got != want {
			run.Converged = false
		}
	}

	// Scrub repair: rot a spread of chunks on one backend behind the box's
	// back, then let one scrub pass repair them from the healthy majority.
	corrupt := cfg.Chunks / 64
	if corrupt < 4 {
		corrupt = 4
	}
	victim := box.Targets()[0]
	for i := 0; i < corrupt; i++ {
		slot := uint64(i * cfg.Chunks / corrupt)
		if err := victim.Store().Corrupt(slot); err != nil {
			return nil, fmt.Errorf("backup: corrupt slot %d: %w", slot, err)
		}
	}
	run.CorruptedChunks = corrupt
	reps := make([]scrub.Replica, 0, len(box.Targets()))
	for _, t := range box.Targets() {
		reps = append(reps, t)
	}
	sc := scrub.New(scrub.Config{
		Name: "bench-backup", Replicas: reps, Slots: slots, ChunkSize: cfg.ChunkBytes,
	})
	pass, err := sc.RunPass()
	if err != nil {
		return nil, fmt.Errorf("backup: scrub pass: %w", err)
	}
	run.ScrubScanned = pass.Scanned
	run.ScrubRepaired = pass.Repaired
	run.RepairOK = pass.Repaired >= uint64(corrupt) && pass.Unrepairable == 0
	if got, err := victim.Store().LogicalHash(); err != nil || got != want {
		run.RepairOK = false
	}

	// Gates.
	if run.DedupRatio < 1.5 {
		run.Violations = append(run.Violations,
			fmt.Sprintf("dedup ratio %.2fx below the 1.5x floor on a %d%%-delta workload", run.DedupRatio, cfg.ModifiedPct))
	}
	if !run.Converged {
		run.Violations = append(run.Violations, "backends diverged from the primary image after drain")
	}
	if !run.RepairOK {
		run.Violations = append(run.Violations,
			fmt.Sprintf("scrub repaired %d of %d corrupted chunks", run.ScrubRepaired, corrupt))
	}
	return run, nil
}

// FormatBackup renders the backup report.
func FormatBackup(run *BackupRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "backup: %d rounds x %d chunks (%d B), %d%% modified per round, %d backends quorum %d\n",
		run.Rounds, run.Chunks, run.ChunkBytes, run.ModifiedPct, run.Backends, run.Quorum)
	fmt.Fprintf(&b, "  ingested           %.1f MiB logical, %.1f MiB stored per backend\n", run.LogicalMB, run.StoredMB)
	fmt.Fprintf(&b, "  dedup ratio        %.2fx (%d chunk writes deduplicated)\n", run.DedupRatio, run.DedupHits)
	fmt.Fprintf(&b, "  fan-out throughput %.1f MiB/s quorum-acknowledged (write p99 %v)\n",
		run.WriteMBps, run.WriteP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  convergence        all backends content-hash equal: %v\n", run.Converged)
	fmt.Fprintf(&b, "  scrub repair       %d/%d corrupted chunks repaired (scanned %d)\n",
		run.ScrubRepaired, run.CorruptedChunks, run.ScrubScanned)
	if len(run.Violations) == 0 {
		b.WriteString("  PASS: all backup gates held\n")
	} else {
		for _, v := range run.Violations {
			fmt.Fprintf(&b, "  FAIL: %s\n", v)
		}
	}
	return b.String()
}

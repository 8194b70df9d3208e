package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/scrub"
	"repro/internal/services/replicate"
	"repro/internal/statedir"
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
}

// backupModifiedPct of the chunks change between consecutive rounds (the
// backup delta).
const backupModifiedPct = 25

// BackupRun is one dated backup-suite result.
type BackupRun struct {
	When        string `json:"when"`
	Backends    int    `json:"backends"`
	Quorum      int    `json:"quorum"`
	ChunkBytes  int    `json:"chunk_bytes"`
	Chunks      int    `json:"chunks"`
	Rounds      int    `json:"rounds"`
	ModifiedPct int    `json:"modified_pct"`
	StateFS     string `json:"state_fs"` // the dispatch journal's file system

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

	Violations `json:"violations,omitempty"`
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
	run := &BackupRun{
		When:        now(),
		Backends:    rigBackends,
		Quorum:      rigQuorum,
		ChunkBytes:  rigChunk,
		Chunks:      cfg.Chunks,
		Rounds:      cfg.Rounds,
		ModifiedPct: backupModifiedPct,
	}
	r, err := newRig(replicate.Config{Name: "bench-backup", Quorum: rigQuorum}, cfg.Chunks, blockBackend(cfg.Chunks))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	run.StateFS = statedir.FS(r.walDir)

	// The backup workload: round 0 writes a fully unique image; each later
	// round re-ingests the full image with ModifiedPct of the chunks
	// changed. gen tracks the generation whose content a slot carries.
	gen := make([]int, cfg.Chunks)
	hist := &obs.Histogram{}
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		for s := 0; s < cfg.Chunks; s++ {
			if round > 0 && (s*31+round*17)%100 < backupModifiedPct {
				gen[s] = round
			}
			t0 := time.Now()
			if err := r.write(gen[s], s); err != nil {
				return nil, fmt.Errorf("backup round %d slot %d: %w", round, s, err)
			}
			hist.Observe(time.Since(t0))
		}
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	st := r.backends[0].Store.Stats()
	run.LogicalMB = float64(st.BytesLogical) / (1 << 20)
	run.StoredMB = float64(st.BytesStored) / (1 << 20)
	run.DedupRatio = st.DedupRatio()
	run.DedupHits = st.DedupHits
	run.WriteMBps = run.LogicalMB / elapsed.Seconds()
	run.WriteP99 = hist.Percentile(99)

	// Convergence: every backend's logical image must hash identically to
	// the primary's bytes.
	if run.Converged, err = r.converged(); err != nil {
		return nil, err
	}

	// Scrub repair: rot a spread of chunks on one backend behind the box's
	// back, then let one scrub pass repair them from the healthy majority.
	corrupt := cfg.Chunks / 64
	if corrupt < 4 {
		corrupt = 4
	}
	victim := r.box.Targets()[0]
	for i := 0; i < corrupt; i++ {
		slot := uint64(i * cfg.Chunks / corrupt)
		if err := victim.Store().Corrupt(slot); err != nil {
			return nil, fmt.Errorf("backup: corrupt slot %d: %w", slot, err)
		}
	}
	run.CorruptedChunks = corrupt
	reps := make([]scrub.Replica, 0, len(r.box.Targets()))
	for _, t := range r.box.Targets() {
		reps = append(reps, t)
	}
	sc := scrub.New(scrub.Config{
		Name: "bench-backup", Replicas: reps, Slots: uint64(cfg.Chunks), ChunkSize: rigChunk,
	})
	pass, err := sc.RunPass()
	if err != nil {
		return nil, fmt.Errorf("backup: scrub pass: %w", err)
	}
	run.ScrubScanned = pass.Scanned
	run.ScrubRepaired = pass.Repaired
	run.RepairOK = pass.Repaired >= uint64(corrupt) && pass.Unrepairable == 0
	want, err := r.imageHash()
	if err != nil {
		return nil, err
	}
	if got, err := victim.Store().LogicalHash(); err != nil || got != want {
		run.RepairOK = false
	}

	// Gates.
	if run.DedupRatio < 1.5 {
		run.Violations = append(run.Violations,
			fmt.Sprintf("dedup ratio %.2fx below the 1.5x floor on a %d%%-delta workload", run.DedupRatio, backupModifiedPct))
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
	fmt.Fprintf(&b, "backup: %d rounds x %d chunks (%d B), %d%% modified per round, %d backends quorum %d, journal on %s\n",
		run.Rounds, run.Chunks, run.ChunkBytes, run.ModifiedPct, run.Backends, run.Quorum, run.StateFS)
	fmt.Fprintf(&b, "  ingested           %.1f MiB logical, %.1f MiB stored per backend\n", run.LogicalMB, run.StoredMB)
	fmt.Fprintf(&b, "  dedup ratio        %.2fx (%d chunk writes deduplicated)\n", run.DedupRatio, run.DedupHits)
	fmt.Fprintf(&b, "  fan-out throughput %.1f MiB/s quorum-acknowledged (write p99 %v)\n",
		run.WriteMBps, run.WriteP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  convergence        all backends content-hash equal: %v\n", run.Converged)
	fmt.Fprintf(&b, "  scrub repair       %d/%d corrupted chunks repaired (scanned %d)\n",
		run.ScrubRepaired, run.CorruptedChunks, run.ScrubScanned)
	run.Violations.write(&b, "backup")
	return b.String()
}

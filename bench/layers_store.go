package main

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/extfs"
	"repro/internal/middlebox"
	"repro/internal/obs"
	"repro/internal/scrub"
	"repro/internal/semantic"
	"repro/internal/services/crypt"
	"repro/internal/services/replica"
	"repro/internal/services/replicate"
	"repro/internal/wal"
)

// chunkBytes is the content-addressing granularity (the policy default).
const chunkBytes = 4096

// scratchDir makes an empty directory under the state root (tmpfs when the
// process could mount one) and returns it with its remover.
func (h *harness) scratchDir() (string, func(), error) {
	dir, err := os.MkdirTemp(h.stateRoot, "layer-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}

// stamped makes buf differ for every i, so content-addressed stores see
// unique chunks.
func stamped(buf []byte, i int) []byte {
	binary.LittleEndian.PutUint64(buf, uint64(i)+1)
	return buf
}

// gatedDisk holds every write until the gate opens, so a write-back queue
// of known depth can be built before its drain is timed.
type gatedDisk struct {
	blockdev.Device
	gate chan struct{}
}

func (g *gatedDisk) WriteAt(p []byte, lba uint64) error {
	<-g.gate
	return g.Device.WriteAt(p, lba)
}

// uncommittedLog leaves n 4 KiB appends nobody committed in dir, as a
// crash would.
func uncommittedLog(dir string, n int) error {
	l, err := wal.Create(dir, wal.Meta{}, wal.Options{})
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for i := 0; i < n; i++ {
		if _, err := l.Append(uint64(i)*8, stamped(buf, i)); err != nil {
			return err
		}
	}
	l.Kill()
	return nil
}

// ---- relay journals and the WAL under them ----------------------------------

func (h *harness) journals() {
	buf := make([]byte, 4096)
	mem := middlebox.NewJournal(0)
	h.time("middlebox.journal_append_ns_4k", 20000, func(int) error {
		seq, _, err := mem.Append(0, buf)
		mem.Complete(seq, nil)
		return err
	})
	_ = mem.Close()

	h.with([]string{"middlebox.writeback_ack_ns_4k"}, func() error {
		disk, err := blockdev.NewMemDisk(sectorBytes, 4096)
		if err != nil {
			return err
		}
		wb := middlebox.NewWriteBack(disk, middlebox.NewJournal(middlebox.DefaultJournalCapacity))
		defer wb.Close()
		h.time("middlebox.writeback_ack_ns_4k", 20000, func(i int) error { return wb.WriteAt(buf, uint64(i%256)*8) })
		return wb.Flush()
	})
	const depth = 1024
	h.sample("middlebox.writeback_drain_ns_per_write", func(int) (time.Duration, int, error) {
		disk, err := blockdev.NewMemDisk(sectorBytes, depth)
		if err != nil {
			return 0, 0, err
		}
		gate := make(chan struct{})
		wb := middlebox.NewWriteBack(&gatedDisk{Device: disk, gate: gate}, middlebox.NewJournal(0))
		defer wb.Close()
		t0 := time.Now()
		for i := 0; i < depth; i++ {
			if err := wb.WriteAt(buf[:sectorBytes], uint64(i)); err != nil {
				return 0, 0, err
			}
		}
		close(gate)
		err = wb.Flush()
		return time.Since(t0), depth, err
	})

	h.with([]string{"middlebox.durable_append_us_4k", "wal.append_us_4k", "wal.commit_us", "wal.append_window1ms_us_4k", "wal.replay_ms_1024", "wal.bytes_per_user_byte"}, func() error {
		dir, rm, err := h.scratchDir()
		if err != nil {
			return err
		}
		defer rm()
		j, err := middlebox.NewDurableJournal(filepath.Join(dir, "journal"), wal.Meta{}, 0, wal.Options{})
		if err != nil {
			return err
		}
		h.time("middlebox.durable_append_us_4k", 2000, func(int) error {
			seq, _, err := j.Append(0, buf)
			j.Complete(seq, nil)
			return err
		})
		_ = j.Close()

		l, err := wal.Create(filepath.Join(dir, "log"), wal.Meta{}, wal.Options{})
		if err != nil {
			return err
		}
		var seqs []uint64
		h.time("wal.append_us_4k", 2000, func(int) error {
			seq, err := l.Append(0, buf)
			seqs = append(seqs, seq)
			return err
		})
		h.time("wal.commit_us", len(seqs)/batches, func(i int) error { return l.Commit(seqs[i]) })
		_ = l.Close()

		// The 1 ms group-commit window is bimodal (an append waits one or
		// two windows), which is why it is a harness metric, not a workload.
		lw, err := wal.Create(filepath.Join(dir, "window"), wal.Meta{}, wal.Options{SyncWindow: time.Millisecond})
		if err != nil {
			return err
		}
		h.time("wal.append_window1ms_us_4k", 20, func(int) error {
			_, err := lw.Append(0, buf)
			return err
		})
		_ = lw.Close()

		records := h.iters(1024)
		h.sample("wal.replay_ms_1024", func(b int) (time.Duration, int, error) {
			rdir := filepath.Join(dir, fmt.Sprintf("replay-%d", b))
			if err := uncommittedLog(rdir, records); err != nil {
				return 0, 0, err
			}
			if b == 0 {
				var onDisk int64
				entries, err := os.ReadDir(rdir)
				if err != nil {
					return 0, 0, err
				}
				for _, e := range entries {
					if fi, err := e.Info(); err == nil {
						onDisk += fi.Size()
					}
				}
				h.set("wal.bytes_per_user_byte", "ratio", float64(onDisk)/float64(records*len(buf)))
			}
			t0 := time.Now()
			rl, rec, err := wal.Open(rdir, wal.Options{})
			took := time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			rl.Kill()
			if len(rec.Records) != records {
				return 0, 0, fmt.Errorf("replay found %d records, want %d", len(rec.Records), records)
			}
			return took, 1, nil
		})
		return nil
	})
}

// fsyncReal times write+fsync of a 4 KiB append on dir's own file system:
// the device demand the tmpfs state directory hides. Informational; it
// measures the host, not the program.
func (h *harness) fsyncReal(dir string) {
	const name = "wal.fsync_real_us"
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		h.fail(name, err)
		return
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	h.time(name, 20, func(int) error {
		if _, err := f.Write(buf); err != nil {
			return err
		}
		return f.Sync()
	})
}

// ---- services: cipher, CAS, replication, scrub ---------------------------------

// casDisk is a fresh memory disk sized for a block-backed store of slots
// chunks.
func casDisk(slots uint64) (*blockdev.MemDisk, error) {
	need, err := cas.BlockBackendBytes(sectorBytes, chunkBytes, slots)
	if err != nil {
		return nil, err
	}
	return blockdev.NewMemDisk(sectorBytes, need/sectorBytes)
}

func openCAS(disk blockdev.Device, slots uint64) (*cas.Store, error) {
	be, err := cas.OpenBlockBackend(disk, chunkBytes, slots)
	if err != nil {
		return nil, err
	}
	return cas.Open(be, chunkBytes, slots)
}

func (h *harness) stores() {
	h.with([]string{"crypt.transform_ns_per_kib_4k", "crypt.transform_ns_per_kib_64k"}, func() error {
		key, err := hex.DecodeString(aesKeyHex)
		if err != nil {
			return err
		}
		c, err := crypt.NewCipher(key)
		if err != nil {
			return err
		}
		for _, sz := range sizes {
			buf := make([]byte, sz.n)
			calls := h.iters(4 << 20 / sz.n) // 4 MiB a batch
			h.sample("crypt.transform_ns_per_kib_"+sz.tag, func(int) (time.Duration, int, error) {
				t0 := time.Now()
				for i := 0; i < calls; i++ {
					c.Transform(buf, uint64(i), sectorBytes)
				}
				return time.Since(t0), calls * sz.n / 1024, nil
			})
		}
		return nil
	})

	buf := make([]byte, chunkBytes)
	h.time("cas.sum_ns_4k", 5000, func(i int) error {
		cas.Sum(stamped(buf, i))
		return nil
	})
	slots := uint64(h.iters(4096))
	h.with([]string{"cas.write_unique_us", "cas.write_dup_us", "cas.read_us", "cas.open_ms_4096"}, func() error {
		disk, err := casDisk(slots)
		if err != nil {
			return err
		}
		s, err := openCAS(disk, slots)
		if err != nil {
			return err
		}
		// Unscaled: cas.open_ms_4096 wants every slot mapped.
		n := int(slots) / batches
		h.sample("cas.write_unique_us", func(b int) (time.Duration, int, error) {
			t0 := time.Now()
			for i := b * n; i < (b+1)*n; i++ {
				if _, err := s.Write(uint64(i), stamped(buf, i)); err != nil {
					return 0, 0, err
				}
			}
			return time.Since(t0), n, nil
		})
		for i := batches * n; i < int(slots); i++ {
			if _, err := s.Write(uint64(i), stamped(buf, i)); err != nil {
				return err
			}
		}
		h.time("cas.write_dup_us", 1000, func(i int) error {
			// Content that slot 0 already holds, written to another slot.
			_, err := s.Write(1+uint64(i)%(slots-1), stamped(buf, 0))
			return err
		})
		h.time("cas.read_us", 1000, func(i int) error { return s.Read(uint64(i)%slots, buf) })
		h.time("cas.open_ms_4096", 1, func(int) error {
			_, err := openCAS(disk, slots)
			return err
		})
		return nil
	})

	h.with([]string{"replicate.write_us_4k", "replicate.write_us_64k", "replicate.fsyncs_per_write_64k", "replicate.replay_ms_256", "scrub.pass_ms_4096"}, func() error {
		dir, rm, err := h.scratchDir()
		if err != nil {
			return err
		}
		defer rm()
		primary, err := blockdev.NewMemDisk(sectorBytes, slots*chunkBytes/sectorBytes)
		if err != nil {
			return err
		}
		var backends []replicate.NamedStore
		for i := 0; i < 3; i++ {
			disk, err := casDisk(slots)
			if err != nil {
				return err
			}
			s, err := openCAS(disk, slots)
			if err != nil {
				return err
			}
			backends = append(backends, replicate.NamedStore{Name: fmt.Sprintf("backend%d", i), Store: s})
		}
		cfg := replicate.Config{Name: "bench-box", Quorum: 2, WALDir: filepath.Join(dir, "dispatch")}
		box, err := replicate.New(cfg, primary, backends)
		if err != nil {
			return err
		}
		h.time("replicate.write_us_4k", 400, func(i int) error { return box.WriteAt(stamped(buf, i), uint64(i)%slots*8) })
		big := make([]byte, 64*1024)
		fsyncs := obs.Default().Counter("wal.fsyncs")
		before, writes := fsyncs.Value(), 0
		h.time("replicate.write_us_64k", 100, func(i int) error {
			for off := 0; off < len(big); off += chunkBytes {
				stamped(big[off:], 1<<20+i*16+off/chunkBytes)
			}
			writes++
			return box.WriteAt(big, uint64(i)%(slots/16)*128)
		})
		h.set("replicate.fsyncs_per_write_64k", "ratio", ratio(float64(fsyncs.Value()-before), float64(writes)))
		for !box.Drained() {
			time.Sleep(100 * time.Microsecond)
		}
		var replicas []scrub.Replica
		for _, t := range box.Targets() {
			replicas = append(replicas, t)
		}
		sc := scrub.New(scrub.Config{Name: "bench-box", Replicas: replicas, Slots: slots, ChunkSize: chunkBytes})
		h.time("scrub.pass_ms_4096", 1, func(int) error {
			st, err := sc.RunPass()
			if err == nil && st.Mismatches != 0 {
				err = fmt.Errorf("scrub found %d mismatches on converged backends", st.Mismatches)
			}
			return err
		})
		if err := box.Close(); err != nil {
			return err
		}

		// The dispatch journal is a plain WAL, so a crashed box's backlog
		// can be written directly and a successor timed opening it.
		backlog := h.iters(256)
		h.sample("replicate.replay_ms_256", func(b int) (time.Duration, int, error) {
			cfg.WALDir = filepath.Join(dir, fmt.Sprintf("replay-%d", b))
			if err := uncommittedLog(cfg.WALDir, backlog); err != nil {
				return 0, 0, err
			}
			// Closing a box closes its primary, so each successor gets its own.
			primary, err := blockdev.NewMemDisk(sectorBytes, slots*chunkBytes/sectorBytes)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			successor, err := replicate.New(cfg, primary, backends)
			took := time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			defer successor.Close()
			if successor.Replayed() != backlog {
				return 0, 0, fmt.Errorf("successor replayed %d records, want %d", successor.Replayed(), backlog)
			}
			return took, 1, nil
		})
		return nil
	})

	h.with([]string{"replica.write_us_4k", "replica.read_us_4k"}, func() error {
		var disks []blockdev.Device
		for i := 0; i < 3; i++ {
			d, err := blockdev.NewMemDisk(sectorBytes, 4096)
			if err != nil {
				return err
			}
			disks = append(disks, d)
		}
		d, err := replica.New(disks[0], replica.NamedDevice{Name: "r1", Dev: disks[1]}, replica.NamedDevice{Name: "r2", Dev: disks[2]})
		if err != nil {
			return err
		}
		defer d.Close()
		h.time("replica.write_us_4k", 5000, func(i int) error { return d.WriteAt(buf, uint64(i%256)*8) })
		h.time("replica.read_us_4k", 5000, func(i int) error { return d.ReadAt(buf, uint64(i%256)*8) })
		return nil
	})
}

// ---- file system and semantic reconstruction ------------------------------------

// access is one recorded block I/O.
type access struct {
	write bool
	lba   uint64
	data  []byte // writes only
	n     int
}

// recordingDev records the block accesses a file-system run makes.
type recordingDev struct {
	blockdev.Device
	log []access
}

func (d *recordingDev) ReadAt(p []byte, lba uint64) error {
	d.log = append(d.log, access{lba: lba, n: len(p)})
	return d.Device.ReadAt(p, lba)
}

func (d *recordingDev) WriteAt(p []byte, lba uint64) error {
	d.log = append(d.log, access{write: true, lba: lba, data: append([]byte(nil), p...), n: len(p)})
	return d.Device.WriteAt(p, lba)
}

func (h *harness) fileSystem() {
	names := []string{"extfs.mkfs_ms", "extfs.write_file_us_8k", "extfs.read_file_us_8k", "extfs.dump_ms", "semantic.on_access_ns"}
	h.with(names, func() error {
		newDisk := func() (*blockdev.MemDisk, error) { return blockdev.NewMemDisk(sectorBytes, chainVolume/sectorBytes) }
		h.time("extfs.mkfs_ms", 1, func(int) error {
			disk, err := newDisk()
			if err != nil {
				return err
			}
			_, err = extfs.Mkfs(disk, extfs.Options{})
			return err
		})
		disk, err := newDisk()
		if err != nil {
			return err
		}
		rec := &recordingDev{Device: disk}
		fs, err := extfs.Mkfs(rec, extfs.Options{})
		if err != nil {
			return err
		}
		view, err := fs.Dump()
		if err != nil {
			return err
		}
		rec.log = nil // the reconstructor starts from the formatted view
		if err := fs.Mkdir("/d"); err != nil {
			return err
		}
		data := make([]byte, 8192)
		files := 0
		h.time("extfs.write_file_us_8k", 200, func(i int) error {
			files++
			return fs.WriteFile(fmt.Sprintf("/d/f%05d", i), data)
		})
		h.time("extfs.read_file_us_8k", 200, func(i int) error {
			_, err := fs.ReadFile(fmt.Sprintf("/d/f%05d", i%files))
			return err
		})
		for i := 0; i < files; i += 2 {
			if err := fs.Remove(fmt.Sprintf("/d/f%05d", i)); err != nil {
				return err
			}
		}
		h.time("extfs.dump_ms", 2, func(int) error {
			_, err := fs.Dump()
			return err
		})
		// Replay the recorded creates, reads and deletes into a fresh
		// reconstructor each batch.
		h.sample("semantic.on_access_ns", func(int) (time.Duration, int, error) {
			r := semantic.New(view)
			t0 := time.Now()
			for _, a := range rec.log {
				r.OnAccess(a.write, a.lba, a.data, a.n)
			}
			return time.Since(t0), len(rec.log), nil
		})
		return nil
	})
}

// ---- obs: what a span costs -----------------------------------------------------

func (h *harness) spansCost() {
	reg := obs.NewRegistry()
	h.time("obs.span_ns", 50000, func(int) error {
		reg.StartSpan("bench.harness").End()
		return nil
	})
	reg.EnableTracing(traceConfig)
	h.time("obs.traced_span_ns", 50000, func(int) error {
		reg.StartTraced("bench.harness", "write", 4096).End()
		return nil
	})
}

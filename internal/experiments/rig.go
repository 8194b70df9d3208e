package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/services/replicate"
	"repro/internal/statedir"
)

// The backup and overload suites drive the same stack: a replication box
// over a primary image and rigBackends content-addressed backends of
// rigChunk-byte chunks, its dispatch journal in a statedir directory: the
// suites check what the journal replays, not that it survives the host, so
// on a memory-backed directory its fsyncs do not time the disk.
const (
	rigBlock    = 512
	rigChunk    = 4096
	rigBackends = 3
	rigQuorum   = rigBackends/2 + 1
)

// rig is one replication box with its primary and backends.
type rig struct {
	box      *replicate.Box
	primary  blockdev.Device
	backends []replicate.NamedStore
	chunks   int
	walDir   string
}

// newRig assembles a box over a chunks-chunk primary, backend i stored on
// newBackend(i). cfg's WALDir is filled in.
func newRig(cfg replicate.Config, chunks int, newBackend func(i int) (cas.Backend, error)) (*rig, error) {
	slots := uint64(chunks)
	primary, err := blockdev.NewMemDisk(rigBlock, slots*rigChunk/rigBlock)
	if err != nil {
		return nil, err
	}
	r := &rig{primary: primary, chunks: chunks}
	for i := 0; i < rigBackends; i++ {
		be, err := newBackend(i)
		if err != nil {
			return nil, err
		}
		store, err := cas.Open(be, rigChunk, slots)
		if err != nil {
			return nil, err
		}
		r.backends = append(r.backends, replicate.NamedStore{Name: fmt.Sprintf("backend%d", i), Store: store})
	}
	if r.walDir, err = statedir.Make("storm-rig-wal"); err != nil {
		return nil, err
	}
	cfg.WALDir = r.walDir
	if r.box, err = replicate.New(cfg, primary, r.backends); err != nil {
		os.RemoveAll(r.walDir)
		return nil, err
	}
	return r, nil
}

// blockBackend returns a newRig backend constructor that lays each
// backend's store out on its own block device (superblock, slot table,
// chunk slots) — the stack the platform attaches per backend volume.
func blockBackend(chunks int) func(int) (cas.Backend, error) {
	return func(int) (cas.Backend, error) {
		n, err := cas.BlockBackendBytes(rigBlock, rigChunk, uint64(chunks))
		if err != nil {
			return nil, err
		}
		disk, err := blockdev.NewMemDisk(rigBlock, n/rigBlock)
		if err != nil {
			return nil, err
		}
		return cas.OpenBlockBackend(disk, rigChunk, uint64(chunks))
	}
}

func (r *rig) Close() {
	r.box.Close()
	os.RemoveAll(r.walDir)
}

// write writes slot's content at generation gen through the box.
func (r *rig) write(gen, slot int) error {
	return r.box.WriteAt(chunkData(gen, slot), uint64(slot)*rigChunk/rigBlock)
}

// chunkData renders the deterministic content of a slot at a generation.
func chunkData(gen, slot int) []byte {
	rng := rand.New(rand.NewSource(int64(gen)*1_000_003 + int64(slot)))
	b := make([]byte, rigChunk)
	rng.Read(b)
	return b
}

// drain flushes the box and waits until every backend applied every write.
func (r *rig) drain() error {
	if err := r.box.Flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for !r.box.Drained() {
		if time.Now().After(deadline) {
			return errors.New("replication box never drained")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// imageHash hashes the primary's full logical image: the reference every
// backend's LogicalHash must equal.
func (r *rig) imageHash() (cas.ID, error) {
	img := make([]byte, r.chunks*rigChunk)
	for off := 0; off < len(img); off += rigChunk {
		if err := r.primary.ReadAt(img[off:off+rigChunk], uint64(off/rigBlock)); err != nil {
			return cas.ID{}, err
		}
	}
	return cas.ID(sha256.Sum256(img)), nil
}

// converged drains the box and reports whether every backend's logical
// image content-hashes equal to the primary's.
func (r *rig) converged() (bool, error) {
	if err := r.drain(); err != nil {
		return false, err
	}
	want, err := r.imageHash()
	if err != nil {
		return false, err
	}
	for _, nb := range r.backends {
		if got, err := nb.Store.LogicalHash(); err != nil || got != want {
			return false, nil
		}
	}
	return true, nil
}

// Package cas implements the content-addressed block store behind the
// replicate middle-box service: a logical image of fixed-size chunks where
// every chunk is identified by the SHA-256 of its content. Identical chunks
// are stored once and reference-counted, so rewriting an image with a small
// delta (the backup workload) stores only the changed chunks. Chunk storage
// and the slot→ID table are persisted by a pluggable Backend — an on-device
// layout over internal/blockdev (crash recovery by scan), an object-store
// layout over internal/objstore, or a plain in-memory map for tests.
//
// The design follows kopia's CAS flows (SNIPPETS.md snippet 1): content
// hashes are both the storage key and the integrity check — a chunk that no
// longer hashes to its ID is corruption by definition, which is what the
// scrub service (internal/scrub) detects and repairs.
package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"repro/internal/xerr"
)

// Errors.
var (
	// ErrCorrupt reports a chunk whose stored bytes no longer hash to its ID.
	ErrCorrupt = errors.New("cas: chunk content does not match its id")
	// ErrNoChunk reports a lookup of an ID the backend does not hold.
	ErrNoChunk = errors.New("cas: no such chunk")
	// ErrFull reports a backend with no free chunk slot left. It is classed
	// xerr.Exhausted: retrying won't help until overwrites release chunk
	// refs (dedup reclaim) or the backend grows.
	ErrFull = xerr.New(xerr.Exhausted, "cas: backend is full")
	// ErrStoreFull is the taxonomy-facing name for chunk-slot exhaustion —
	// the same sentinel as ErrFull, exported under the name the data-path
	// error contract uses.
	ErrStoreFull = ErrFull
	// ErrGeometry reports a store opened with a mismatched chunk size or
	// slot count.
	ErrGeometry = errors.New("cas: geometry mismatch")
)

// ID is a chunk's content address: the SHA-256 of its bytes. The zero ID
// marks an unmapped slot.
type ID [32]byte

// Sum computes the content address of a chunk.
func Sum(data []byte) ID { return sha256.Sum256(data) }

// IsZero reports whether the ID is the unmapped-slot marker.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the ID as lowercase hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Backend persists one replica's chunks and its slot→ID table. PutChunk is
// idempotent per ID; SetMapping with the zero ID clears a slot. Backends
// must be safe for concurrent use.
type Backend interface {
	// PutChunk stores a chunk under its ID (no-op if already present).
	PutChunk(id ID, data []byte) error
	// GetChunk returns a chunk's bytes (ErrNoChunk when absent).
	GetChunk(id ID) ([]byte, error)
	// DeleteChunk removes a chunk (no-op when absent).
	DeleteChunk(id ID) error
	// HasChunk reports chunk presence.
	HasChunk(id ID) bool
	// Chunks lists every stored chunk ID (recovery/GC).
	Chunks() []ID
	// SetMapping durably records slot→id.
	SetMapping(slot uint64, id ID) error
	// Mappings returns the persisted slot table, index = slot.
	Mappings() ([]ID, error)
	// CorruptChunk flips the stored bytes of a chunk without touching its
	// ID — fault injection for integrity drills (the scrub experiments),
	// the CAS analogue of volume.InjectFault.
	CorruptChunk(id ID) error
	// Close releases the backend's resources.
	Close() error
}

// Stats is a store's cumulative dedup accounting.
type Stats struct {
	// Writes counts chunk writes accepted (including dedup hits).
	Writes uint64 `json:"writes"`
	// DedupHits counts writes satisfied without storing new bytes.
	DedupHits uint64 `json:"dedup_hits"`
	// BytesLogical is the total bytes written by callers.
	BytesLogical uint64 `json:"bytes_logical"`
	// BytesStored is the total chunk bytes actually put to the backend.
	BytesStored uint64 `json:"bytes_stored"`
	// LiveChunks is the current unique chunk count.
	LiveChunks uint64 `json:"live_chunks"`
}

// DedupRatio is logical over stored bytes (0 when nothing stored).
func (s Stats) DedupRatio() float64 {
	if s.BytesStored == 0 {
		return 0
	}
	return float64(s.BytesLogical) / float64(s.BytesStored)
}

// Store is a content-addressed logical image over a Backend: a dense table
// of slots (chunk-sized extents) mapping to refcounted chunks. Open rebuilds
// the refcount index from the backend's persisted table, so a store survives
// the death of the process that wrote it.
type Store struct {
	mu        sync.Mutex
	b         Backend
	chunkSize int
	slots     uint64
	table     []ID
	refs      map[ID]uint32
	stats     Stats
	closed    bool
}

// Open loads (or initializes) a store over b with the given geometry: slots
// chunks of chunkSize bytes. It rebuilds the reference counts from the
// persisted slot table and garbage-collects orphan chunks a crash may have
// left between a chunk put and its mapping update.
func Open(b Backend, chunkSize int, slots uint64) (*Store, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("cas: invalid chunk size %d", chunkSize)
	}
	if slots == 0 {
		return nil, errors.New("cas: store must have at least one slot")
	}
	table, err := b.Mappings()
	if err != nil {
		return nil, fmt.Errorf("cas: load mappings: %w", err)
	}
	if uint64(len(table)) != slots {
		return nil, fmt.Errorf("%w: backend table has %d slots, want %d", ErrGeometry, len(table), slots)
	}
	s := &Store{
		b:         b,
		chunkSize: chunkSize,
		slots:     slots,
		table:     table,
		refs:      make(map[ID]uint32),
	}
	for _, id := range table {
		if !id.IsZero() {
			s.refs[id]++
		}
	}
	// Orphans: chunks present with no referencing slot are leftovers of a
	// crash during PutChunk or between it and SetMapping. They must go
	// before anything can map them: a block backend's torn put may have
	// left a header over partial data.
	for _, id := range b.Chunks() {
		if s.refs[id] == 0 {
			if err := b.DeleteChunk(id); err != nil {
				return nil, fmt.Errorf("cas: drop orphan chunk %s: %w", id, err)
			}
		}
	}
	s.stats.LiveChunks = uint64(len(s.refs))
	return s, nil
}

// ChunkSize returns the chunk size in bytes.
func (s *Store) ChunkSize() int { return s.chunkSize }

// Slots returns the logical image size in chunks.
func (s *Store) Slots() uint64 { return s.slots }

// IDAt returns the chunk ID mapped at slot (zero when unmapped).
func (s *Store) IDAt(slot uint64) ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot >= s.slots {
		return ID{}
	}
	return s.table[slot]
}

// Write stores a full chunk at slot: hash, then WriteID.
func (s *Store) Write(slot uint64, data []byte) (dup bool, err error) {
	return s.WriteID(slot, Sum(data), data)
}

// WriteID is Write for a caller that already holds id = Sum(data), such as
// the replicate box fanning one chunk out to several stores: dedup against
// the live chunk set, persist the chunk if new, then flip the slot mapping
// and release the previous chunk. It reports whether the write was a dedup
// hit (no new bytes stored). The update ordering — put, map, release —
// keeps every crash point recoverable: an orphan chunk or an unreferenced
// old chunk, both reclaimed at the next Open. An id that is not Sum(data)
// stores a chunk every Read reports as ErrCorrupt.
func (s *Store) WriteID(slot uint64, id ID, data []byte) (dup bool, err error) {
	if len(data) != s.chunkSize {
		return false, fmt.Errorf("cas: write of %d bytes, chunk size %d", len(data), s.chunkSize)
	}
	if slot >= s.slots {
		return false, fmt.Errorf("cas: slot %d out of range (%d)", slot, s.slots)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("cas: store is closed")
	}
	s.stats.Writes++
	s.stats.BytesLogical += uint64(len(data))
	old := s.table[slot]
	if old == id {
		s.stats.DedupHits++
		return true, nil
	}
	if s.refs[id] == 0 {
		if err := s.b.PutChunk(id, data); err != nil {
			return false, err
		}
		s.stats.BytesStored += uint64(len(data))
	} else {
		s.stats.DedupHits++
		dup = true
	}
	if err := s.b.SetMapping(slot, id); err != nil {
		return dup, err
	}
	s.table[slot] = id
	s.refs[id]++
	if !old.IsZero() {
		s.refs[old]--
		if s.refs[old] == 0 {
			delete(s.refs, old)
			_ = s.b.DeleteChunk(old)
		}
	}
	s.stats.LiveChunks = uint64(len(s.refs))
	return dup, nil
}

// Read fills dst with the chunk at slot, verifying the content hash.
// Unmapped slots read as zeros.
func (s *Store) Read(slot uint64, dst []byte) error {
	if len(dst) != s.chunkSize {
		return fmt.Errorf("cas: read of %d bytes, chunk size %d", len(dst), s.chunkSize)
	}
	if slot >= s.slots {
		return fmt.Errorf("cas: slot %d out of range (%d)", slot, s.slots)
	}
	s.mu.Lock()
	id := s.table[slot]
	s.mu.Unlock()
	if id.IsZero() {
		clear(dst)
		return nil
	}
	data, err := s.b.GetChunk(id)
	if err != nil {
		return err
	}
	if Sum(data) != id {
		return fmt.Errorf("%w: slot %d (%s)", ErrCorrupt, slot, id)
	}
	copy(dst, data)
	return nil
}

// Repair force-stores data as slot's content, bypassing Write's dedup fast
// path: when the slot already maps to Sum(data) — the corrupted-chunk case,
// where the mapping is intact but the stored bytes rotted — the chunk is
// re-put over the rotten copy, healing every slot that references it. A
// crash between the delete and the re-put leaves the slot unreadable
// rather than silently wrong; the next scrub pass repairs it again.
func (s *Store) Repair(slot uint64, data []byte) error {
	if len(data) != s.chunkSize {
		return fmt.Errorf("cas: repair of %d bytes, chunk size %d", len(data), s.chunkSize)
	}
	if slot >= s.slots {
		return fmt.Errorf("cas: slot %d out of range (%d)", slot, s.slots)
	}
	id := Sum(data)
	s.mu.Lock()
	if s.table[slot] != id {
		s.mu.Unlock()
		_, err := s.WriteID(slot, id, data)
		return err
	}
	defer s.mu.Unlock()
	if err := s.b.DeleteChunk(id); err != nil {
		return err
	}
	return s.b.PutChunk(id, data)
}

// VerifySlot re-reads the chunk at slot and re-checksums it against its
// mapped ID — the scrub primitive. Unmapped slots verify trivially.
func (s *Store) VerifySlot(slot uint64) error {
	buf := make([]byte, s.chunkSize)
	return s.Read(slot, buf)
}

// Refs returns a chunk's live reference count.
func (s *Store) Refs(id ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.refs[id])
}

// Stats returns the cumulative dedup accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// LogicalHash hashes the store's full logical content (every slot's bytes,
// unmapped slots as zeros) — the convergence check the crash and scrub
// experiments compare across replicas and against the primary device.
func (s *Store) LogicalHash() (ID, error) {
	h := sha256.New()
	buf := make([]byte, s.chunkSize)
	for slot := uint64(0); slot < s.slots; slot++ {
		if err := s.Read(slot, buf); err != nil {
			return ID{}, err
		}
		h.Write(buf)
	}
	var out ID
	h.Sum(out[:0])
	return out, nil
}

// Corrupt flips the stored bytes of the chunk at slot without touching its
// ID — fault injection for the scrub-repair drills. Corrupting an unmapped
// slot is an error.
func (s *Store) Corrupt(slot uint64) error {
	s.mu.Lock()
	id := s.table[slot]
	s.mu.Unlock()
	if id.IsZero() {
		return fmt.Errorf("cas: slot %d is unmapped", slot)
	}
	return s.b.CorruptChunk(id)
}

// Close closes the store and its backend.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.b.Close()
}

// flipped returns a copy of data with every byte inverted — the shared
// corruption pattern backends use for CorruptChunk (guaranteed to change
// the content hash of any chunk).
func flipped(data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = ^b
	}
	return out
}

// equalZero reports whether b is all zeros.
func equalZero(b []byte) bool {
	return bytes.Count(b, []byte{0}) == len(b)
}

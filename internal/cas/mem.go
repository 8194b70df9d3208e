package cas

import (
	"fmt"
	"sync"
)

// MemBackend is an in-memory Backend for tests and the stormbench backup
// suite's lightweight replicas: a chunk map plus a dense slot table.
type MemBackend struct {
	mu     sync.Mutex
	chunks map[ID][]byte
	table  []ID
}

// NewMemBackend returns an empty in-memory backend with the given slot
// count.
func NewMemBackend(slots uint64) *MemBackend {
	return &MemBackend{
		chunks: make(map[ID][]byte),
		table:  make([]ID, slots),
	}
}

// PutChunk stores a copy of data under id and, unless slot is NoSlot,
// records slot→id.
func (m *MemBackend) PutChunk(slot uint64, id ID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot != NoSlot && slot >= uint64(len(m.table)) {
		return slotRange(slot, uint64(len(m.table)))
	}
	m.chunks[id] = append(m.chunks[id][:0], data...)
	if slot != NoSlot {
		m.table[slot] = id
	}
	return nil
}

// GetChunk copies the chunk's bytes into dst.
func (m *MemBackend) GetChunk(id ID, dst []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.chunks[id]
	if !ok {
		return ErrNoChunk
	}
	if len(dst) != len(data) {
		return fmt.Errorf("cas: get of %d bytes, chunk size %d", len(dst), len(data))
	}
	copy(dst, data)
	return nil
}

// DeleteChunk removes a chunk.
func (m *MemBackend) DeleteChunk(id ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.chunks, id)
	return nil
}

// Chunks lists every stored chunk ID.
func (m *MemBackend) Chunks() []ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ID, 0, len(m.chunks))
	for id := range m.chunks {
		out = append(out, id)
	}
	return out
}

// SetMapping records slot→id.
func (m *MemBackend) SetMapping(slot uint64, id ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot >= uint64(len(m.table)) {
		return slotRange(slot, uint64(len(m.table)))
	}
	m.table[slot] = id
	return nil
}

// Mappings returns a copy of the slot table.
func (m *MemBackend) Mappings() ([]ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ID, len(m.table))
	copy(out, m.table)
	return out, nil
}

// CorruptChunk inverts the stored bytes of a chunk in place.
func (m *MemBackend) CorruptChunk(id ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.chunks[id]
	if !ok {
		return ErrNoChunk
	}
	m.chunks[id] = flipped(data)
	return nil
}

// Close is a no-op for the in-memory backend.
func (m *MemBackend) Close() error { return nil }

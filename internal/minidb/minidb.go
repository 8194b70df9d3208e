// Package minidb implements a miniature page-based OLTP database engine —
// the MySQL stand-in for the replication case study (Section V-B3). Like
// InnoDB on a raw partition, it lays fixed-size rows onto the pages of a
// block device (the database server VM's attached volume), so every query
// becomes real block I/O through whatever middle-box chain the volume is
// wired to. Point reads run concurrently (sharing the device), while
// writes lock per-page, letting the replica dispatcher's read striping
// aggregate throughput exactly as the paper measures.
package minidb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/blockdev"
)

// RowSize is the fixed on-disk row size (header + payload).
const RowSize = 256

// rowHeader: id(8) + length(2) + crc(4).
const rowHeader = 14

// MaxPayload is the largest storable row payload.
const MaxPayload = RowSize - rowHeader

// Errors.
var (
	ErrRowNotFound = errors.New("minidb: row not found")
	ErrTooLarge    = errors.New("minidb: payload exceeds row capacity")
	ErrCorrupt     = errors.New("minidb: row checksum mismatch")
)

// DB is a fixed-schema table of rows keyed by dense uint64 ids.
type DB struct {
	dev         blockdev.Device
	pageSize    int
	rowsPerPage int
	capacity    uint64

	// pageLocks stripe write access.
	pageLocks []sync.Mutex
}

// Open creates a database view over the device. pageSize must be a
// multiple of the device block size (4096 typical).
func Open(dev blockdev.Device, pageSize int) (*DB, error) {
	if pageSize <= 0 || pageSize%dev.BlockSize() != 0 {
		return nil, fmt.Errorf("minidb: page size %d incompatible with device block size %d",
			pageSize, dev.BlockSize())
	}
	rowsPerPage := pageSize / RowSize
	if rowsPerPage == 0 {
		return nil, fmt.Errorf("minidb: page size %d smaller than row size %d", pageSize, RowSize)
	}
	totalPages := dev.Blocks() * uint64(dev.BlockSize()) / uint64(pageSize)
	if totalPages < 2 {
		return nil, errors.New("minidb: device too small")
	}
	db := &DB{
		dev:         dev,
		pageSize:    pageSize,
		rowsPerPage: rowsPerPage,
		capacity:    (totalPages - 1) * uint64(rowsPerPage), // page 0 reserved
		pageLocks:   make([]sync.Mutex, 64),
	}
	return db, nil
}

// rowLocation maps an id to (device lba, offset in page, lock stripe).
func (db *DB) rowLocation(id uint64) (lba uint64, off int, stripe int, err error) {
	if id == 0 || id > db.capacity {
		return 0, 0, 0, fmt.Errorf("%w: id %d", ErrRowNotFound, id)
	}
	idx := id - 1
	page := 1 + idx/uint64(db.rowsPerPage) // page 0 reserved for metadata
	off = int(idx%uint64(db.rowsPerPage)) * RowSize
	sectorsPerPage := uint64(db.pageSize / db.dev.BlockSize())
	return page * sectorsPerPage, off, int(page % uint64(len(db.pageLocks))), nil
}

// readPage loads the page containing the row.
func (db *DB) readPage(lba uint64) ([]byte, error) {
	buf := make([]byte, db.pageSize)
	if err := db.dev.ReadAt(buf, lba); err != nil {
		return nil, err
	}
	return buf, nil
}

func encodeRow(dst []byte, id uint64, payload []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], id)
	binary.LittleEndian.PutUint16(dst[8:10], uint16(len(payload)))
	binary.LittleEndian.PutUint32(dst[10:14], crc32.ChecksumIEEE(payload))
	copy(dst[rowHeader:], payload)
	// Zero any residue from a previous larger row.
	for i := rowHeader + len(payload); i < RowSize; i++ {
		dst[i] = 0
	}
}

func decodeRow(src []byte, wantID uint64) ([]byte, error) {
	id := binary.LittleEndian.Uint64(src[0:8])
	if id != wantID {
		return nil, fmt.Errorf("%w: id %d", ErrRowNotFound, wantID)
	}
	n := int(binary.LittleEndian.Uint16(src[8:10]))
	if n > MaxPayload {
		return nil, ErrCorrupt
	}
	payload := append([]byte(nil), src[rowHeader:rowHeader+n]...)
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(src[10:14]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// Put writes (or overwrites) the row with the given id.
func (db *DB) Put(id uint64, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	return db.writeRow(id, payload)
}

// writeRow performs a locked read-modify-write of the row's page.
func (db *DB) writeRow(id uint64, payload []byte) error {
	lba, off, stripe, err := db.rowLocation(id)
	if err != nil {
		return err
	}
	db.pageLocks[stripe].Lock()
	defer db.pageLocks[stripe].Unlock()
	page, err := db.readPage(lba)
	if err != nil {
		return err
	}
	encodeRow(page[off:off+RowSize], id, payload)
	return db.dev.WriteAt(page, lba)
}

// Get reads a row.
func (db *DB) Get(id uint64) ([]byte, error) {
	lba, off, _, err := db.rowLocation(id)
	if err != nil {
		return nil, err
	}
	page, err := db.readPage(lba)
	if err != nil {
		return nil, err
	}
	return decodeRow(page[off:off+RowSize], id)
}

// Delete clears a row.
func (db *DB) Delete(id uint64) error {
	lba, off, stripe, err := db.rowLocation(id)
	if err != nil {
		return err
	}
	db.pageLocks[stripe].Lock()
	defer db.pageLocks[stripe].Unlock()
	page, err := db.readPage(lba)
	if err != nil {
		return err
	}
	clear(page[off : off+RowSize])
	return db.dev.WriteAt(page, lba)
}

// RangeScan reads up to n consecutive rows starting at id, skipping holes.
func (db *DB) RangeScan(id uint64, n int) ([][]byte, error) {
	var out [][]byte
	for i := 0; i < n && id+uint64(i) <= db.capacity; i++ {
		row, err := db.Get(id + uint64(i))
		if errors.Is(err, ErrRowNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// Package scsi implements the subset of the SCSI block command set that the
// StorM iSCSI stack carries: command descriptor blocks (CDBs) for the
// READ/WRITE/capacity/inquiry family, status codes, and sense data. The
// encoding follows SBC-3/SPC-4 wire layouts so that middle-boxes can parse
// intercepted traffic exactly as the paper's prototype does with Open-iSCSI.
package scsi

import (
	"encoding/binary"
	"fmt"
)

// Operation codes for the supported CDBs.
const (
	OpTestUnitReady  byte = 0x00
	OpInquiry        byte = 0x12
	OpReadCapacity10 byte = 0x25
	OpRead10         byte = 0x28
	OpWrite10        byte = 0x2A
	OpSyncCache10    byte = 0x35
	OpRead16         byte = 0x88
	OpWrite16        byte = 0x8A
	OpReadCapacity16 byte = 0x9E // service action in byte 1
)

// Status is the SCSI command completion status.
type Status byte

// SCSI status codes (SAM-5).
const (
	StatusGood           Status = 0x00
	StatusCheckCondition Status = 0x02
	StatusBusy           Status = 0x08
	StatusTaskSetFull    Status = 0x28
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case StatusGood:
		return "GOOD"
	case StatusCheckCondition:
		return "CHECK CONDITION"
	case StatusBusy:
		return "BUSY"
	case StatusTaskSetFull:
		return "TASK SET FULL"
	default:
		return fmt.Sprintf("STATUS(0x%02x)", byte(s))
	}
}

// CDB is a decoded command descriptor block.
type CDB struct {
	Op byte
	// LBA and Blocks are meaningful for the READ/WRITE/SYNC family.
	LBA    uint64
	Blocks uint32
	// AllocationLength is meaningful for INQUIRY and READ CAPACITY(16).
	AllocationLength uint32
	// Raw holds the original bytes the CDB was decoded from.
	Raw []byte
}

// IsWrite reports whether the CDB transfers data from the initiator to the
// device.
func (c *CDB) IsWrite() bool {
	return c.Op == OpWrite10 || c.Op == OpWrite16
}

// ReadCDB returns a READ CDB addressing the given extent, choosing READ(10)
// when the extent fits and READ(16) otherwise.
func ReadCDB(lba uint64, blocks uint32) CDB {
	op := OpRead10
	if lba > 0xFFFFFFFF || blocks > 0xFFFF {
		op = OpRead16
	}
	return CDB{Op: op, LBA: lba, Blocks: blocks}
}

// WriteCDB returns a WRITE CDB addressing the given extent, choosing
// WRITE(10) when the extent fits and WRITE(16) otherwise.
func WriteCDB(lba uint64, blocks uint32) CDB {
	op := OpWrite10
	if lba > 0xFFFFFFFF || blocks > 0xFFFF {
		op = OpWrite16
	}
	return CDB{Op: op, LBA: lba, Blocks: blocks}
}

// NewReadCapacity10 returns a READ CAPACITY(10) CDB.
func NewReadCapacity10() *CDB { return &CDB{Op: OpReadCapacity10} }

// NewReadCapacity16 returns a READ CAPACITY(16) CDB.
func NewReadCapacity16() *CDB {
	return &CDB{Op: OpReadCapacity16, AllocationLength: 32}
}

// NewSyncCache returns a SYNCHRONIZE CACHE(10) CDB covering the extent; a
// zero extent requests syncing the whole medium.
func NewSyncCache(lba uint64, blocks uint32) *CDB {
	return &CDB{Op: OpSyncCache10, LBA: lba, Blocks: blocks}
}

// EncodeInto serializes the CDB into dst without allocating and without
// touching c.Raw — the hot-path form for callers that own a reusable CDB
// field. dst must be at least 16 bytes and zeroed by the caller (reserved
// bytes are not written). Returns the encoded length.
func (c *CDB) EncodeInto(dst []byte) (int, error) {
	if len(dst) < 16 {
		return 0, fmt.Errorf("scsi: CDB destination %d bytes, need 16", len(dst))
	}
	switch c.Op {
	case OpTestUnitReady:
		dst[0] = c.Op
		return 6, nil
	case OpInquiry:
		if c.AllocationLength > 0xFFFF {
			return 0, fmt.Errorf("scsi: inquiry allocation length %d exceeds 16 bits", c.AllocationLength)
		}
		dst[0] = c.Op
		binary.BigEndian.PutUint16(dst[3:5], uint16(c.AllocationLength))
		return 6, nil
	case OpReadCapacity10:
		dst[0] = c.Op
		return 10, nil
	case OpRead10, OpWrite10, OpSyncCache10:
		if c.LBA > 0xFFFFFFFF {
			return 0, fmt.Errorf("scsi: lba %d exceeds 32 bits for 10-byte CDB", c.LBA)
		}
		if c.Blocks > 0xFFFF {
			return 0, fmt.Errorf("scsi: transfer length %d exceeds 16 bits for 10-byte CDB", c.Blocks)
		}
		dst[0] = c.Op
		binary.BigEndian.PutUint32(dst[2:6], uint32(c.LBA))
		binary.BigEndian.PutUint16(dst[7:9], uint16(c.Blocks))
		return 10, nil
	case OpRead16, OpWrite16:
		dst[0] = c.Op
		binary.BigEndian.PutUint64(dst[2:10], c.LBA)
		binary.BigEndian.PutUint32(dst[10:14], c.Blocks)
		return 16, nil
	case OpReadCapacity16:
		dst[0] = c.Op
		dst[1] = 0x10 // READ CAPACITY(16) service action
		binary.BigEndian.PutUint32(dst[10:14], c.AllocationLength)
		return 16, nil
	default:
		return 0, fmt.Errorf("scsi: cannot encode unsupported opcode 0x%02x", c.Op)
	}
}

// Decode parses a wire-format CDB.
func Decode(b []byte) (*CDB, error) {
	c := new(CDB)
	if err := DecodeInto(c, b); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeInto parses a wire-format CDB into c, a caller-owned (typically
// reused) struct — the allocation-free form for per-command paths. c.Raw
// aliases b. On error c's contents are unspecified.
func DecodeInto(c *CDB, b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("scsi: empty CDB")
	}
	*c = CDB{Op: b[0], Raw: b}
	switch b[0] {
	case OpTestUnitReady:
		if len(b) < 6 {
			return fmt.Errorf("scsi: short TEST UNIT READY CDB (%d bytes)", len(b))
		}
		return nil
	case OpInquiry:
		if len(b) < 6 {
			return fmt.Errorf("scsi: short INQUIRY CDB (%d bytes)", len(b))
		}
		c.AllocationLength = uint32(binary.BigEndian.Uint16(b[3:5]))
		return nil
	case OpReadCapacity10:
		if len(b) < 10 {
			return fmt.Errorf("scsi: short READ CAPACITY(10) CDB (%d bytes)", len(b))
		}
		return nil
	case OpRead10, OpWrite10, OpSyncCache10:
		if len(b) < 10 {
			return fmt.Errorf("scsi: short 10-byte CDB (%d bytes)", len(b))
		}
		c.LBA = uint64(binary.BigEndian.Uint32(b[2:6]))
		c.Blocks = uint32(binary.BigEndian.Uint16(b[7:9]))
		return nil
	case OpRead16, OpWrite16:
		if len(b) < 16 {
			return fmt.Errorf("scsi: short 16-byte CDB (%d bytes)", len(b))
		}
		c.LBA = binary.BigEndian.Uint64(b[2:10])
		c.Blocks = binary.BigEndian.Uint32(b[10:14])
		return nil
	case OpReadCapacity16:
		if len(b) < 16 {
			return fmt.Errorf("scsi: short READ CAPACITY(16) CDB (%d bytes)", len(b))
		}
		c.AllocationLength = binary.BigEndian.Uint32(b[10:14])
		return nil
	default:
		return &UnsupportedOpError{Op: b[0]}
	}
}

// UnsupportedOpError reports a CDB opcode outside the supported subset.
type UnsupportedOpError struct {
	Op byte
}

func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("scsi: unsupported opcode 0x%02x", e.Op)
}

package scsi

import (
	"encoding/binary"
	"fmt"
)

// InquiryData is the standard INQUIRY response payload.
type InquiryData struct {
	Vendor   string // up to 8 ASCII characters
	Product  string // up to 16 ASCII characters
	Revision string // up to 4 ASCII characters
}

// Encode serializes a 36-byte standard INQUIRY response for a
// direct-access block device.
func (d *InquiryData) Encode() []byte {
	b := make([]byte, 36)
	// byte 0: peripheral qualifier 0, device type 0 (direct access).
	b[2] = 0x06 // SPC-4
	b[3] = 0x02 // response data format 2
	b[4] = 31   // additional length (n-4)
	copyPadded(b[8:16], d.Vendor)
	copyPadded(b[16:32], d.Product)
	copyPadded(b[32:36], d.Revision)
	return b
}

func copyPadded(dst []byte, s string) {
	for i := range dst {
		dst[i] = ' '
	}
	copy(dst, s)
}

// Capacity describes a block device extent for READ CAPACITY responses.
type Capacity struct {
	// LastLBA is the address of the final logical block (i.e. block count-1).
	LastLBA uint64
	// BlockSize is the logical block length in bytes.
	BlockSize uint32
}

// Blocks returns the total number of logical blocks.
func (c Capacity) Blocks() uint64 { return c.LastLBA + 1 }

// EncodeCapacity10 serializes the 8-byte READ CAPACITY(10) response. A device
// larger than 2^32-1 blocks reports 0xFFFFFFFF per SBC-3, directing the
// initiator to READ CAPACITY(16).
func (c Capacity) EncodeCapacity10() []byte {
	b := make([]byte, 8)
	last := c.LastLBA
	if last > 0xFFFFFFFF {
		last = 0xFFFFFFFF
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(last))
	binary.BigEndian.PutUint32(b[4:8], c.BlockSize)
	return b
}

// EncodeCapacity16 serializes the 32-byte READ CAPACITY(16) response.
func (c Capacity) EncodeCapacity16() []byte {
	b := make([]byte, 32)
	binary.BigEndian.PutUint64(b[0:8], c.LastLBA)
	binary.BigEndian.PutUint32(b[8:12], c.BlockSize)
	return b
}

// DecodeCapacity10 parses a READ CAPACITY(10) response.
func DecodeCapacity10(b []byte) (Capacity, error) {
	if len(b) < 8 {
		return Capacity{}, fmt.Errorf("scsi: capacity(10) data too short (%d bytes)", len(b))
	}
	return Capacity{
		LastLBA:   uint64(binary.BigEndian.Uint32(b[0:4])),
		BlockSize: binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// DecodeCapacity16 parses a READ CAPACITY(16) response.
func DecodeCapacity16(b []byte) (Capacity, error) {
	if len(b) < 12 {
		return Capacity{}, fmt.Errorf("scsi: capacity(16) data too short (%d bytes)", len(b))
	}
	return Capacity{
		LastLBA:   binary.BigEndian.Uint64(b[0:8]),
		BlockSize: binary.BigEndian.Uint32(b[8:12]),
	}, nil
}

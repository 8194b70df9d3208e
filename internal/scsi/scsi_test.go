package scsi

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// roundTripCDBs is one CDB of every supported opcode; FuzzDecodeCDB seeds
// from their encodings.
var roundTripCDBs = []struct {
	name string
	give *CDB
}{
	{"read10", readCDB(1234, 8)},
	{"write10", writeCDB(0xFFFFFFFF, 0xFFFF)},
	{"read16", readCDB(1<<40, 8)},
	{"write16", writeCDB(7, 1<<20)},
	{"capacity10", NewReadCapacity10()},
	{"capacity16", NewReadCapacity16()},
	{"inquiry", &CDB{Op: OpInquiry, AllocationLength: 96}},
	{"tur", &CDB{Op: OpTestUnitReady}},
	{"sync", NewSyncCache(100, 50)},
}

func TestCDBRoundTrip(t *testing.T) {
	for _, tt := range roundTripCDBs {
		t.Run(tt.name, func(t *testing.T) {
			enc, err := encode(tt.give)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.Op != tt.give.Op || got.LBA != tt.give.LBA || got.Blocks != tt.give.Blocks {
				t.Errorf("round trip mismatch: got {op=0x%02x lba=%d blocks=%d}, want {op=0x%02x lba=%d blocks=%d}",
					got.Op, got.LBA, got.Blocks, tt.give.Op, tt.give.LBA, tt.give.Blocks)
			}
			if got.AllocationLength != tt.give.AllocationLength {
				t.Errorf("AllocationLength = %d, want %d", got.AllocationLength, tt.give.AllocationLength)
			}
			// The allocation-free form overwrites every field of a reused CDB.
			reused := CDB{Op: 0xFF, LBA: 1 << 50, Blocks: 9, AllocationLength: 9}
			if err := DecodeInto(&reused, enc); err != nil {
				t.Fatalf("DecodeInto: %v", err)
			}
			if reused.Op != got.Op || reused.LBA != got.LBA || reused.Blocks != got.Blocks ||
				reused.AllocationLength != got.AllocationLength || &reused.Raw[0] != &enc[0] {
				t.Errorf("DecodeInto over a used CDB = %+v, Decode = %+v", reused, *got)
			}
		})
	}
}

func TestCDBRoundTripProperty(t *testing.T) {
	f := func(lba uint64, blocks uint32, write bool) bool {
		if blocks == 0 {
			blocks = 1
		}
		var c *CDB
		if write {
			c = writeCDB(lba, blocks)
		} else {
			c = readCDB(lba, blocks)
		}
		enc, err := encode(c)
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return got.LBA == lba && got.Blocks == blocks && got.IsWrite() == write
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDBSelectsWideFormat(t *testing.T) {
	if got := readCDB(1<<33, 1).Op; got != OpRead16 {
		t.Errorf("readCDB(huge lba).Op = 0x%02x, want READ(16)", got)
	}
	if got := readCDB(10, 1<<17).Op; got != OpRead16 {
		t.Errorf("readCDB(huge count).Op = 0x%02x, want READ(16)", got)
	}
	if got := writeCDB(10, 4).Op; got != OpWrite10 {
		t.Errorf("writeCDB(small).Op = 0x%02x, want WRITE(10)", got)
	}
}

func TestCDBEncodeRangeErrors(t *testing.T) {
	// Force a 10-byte opcode with out-of-range fields.
	c := &CDB{Op: OpRead10, LBA: 1 << 33}
	if _, err := encode(c); err == nil {
		t.Error("Encode READ(10) with 33-bit LBA: want error")
	}
	c = &CDB{Op: OpWrite10, Blocks: 1 << 17}
	if _, err := encode(c); err == nil {
		t.Error("Encode WRITE(10) with 17-bit count: want error")
	}
	c = &CDB{Op: 0x42}
	if _, err := encode(c); err == nil {
		t.Error("Encode unknown opcode: want error")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil): want error")
	}
	if _, err := Decode([]byte{OpRead10, 0, 0}); err == nil {
		t.Error("Decode(short READ10): want error")
	}
	_, err := Decode([]byte{0x42, 0, 0, 0, 0, 0})
	var ue *UnsupportedOpError
	if !errors.As(err, &ue) {
		t.Errorf("Decode(unknown op) error = %v, want UnsupportedOpError", err)
	}
	if ue != nil && ue.Op != 0x42 {
		t.Errorf("UnsupportedOpError.Op = 0x%02x, want 0x42", ue.Op)
	}
}

func TestCDBClassification(t *testing.T) {
	if readCDB(0, 1).IsWrite() || !writeCDB(0, 1).IsWrite() {
		t.Error("WRITE classification wrong")
	}
}

// roundTripSense is sense data with every field set; FuzzDecodeSense seeds
// from its encoding.
var roundTripSense = &Sense{Key: SenseMediumError, ASC: ASCWriteError, ASCQ: 0x02, Info: 777}

func TestSenseRoundTrip(t *testing.T) {
	give := roundTripSense
	got, err := DecodeSense(give.Encode())
	if err != nil {
		t.Fatalf("DecodeSense: %v", err)
	}
	if got.Key != give.Key || got.ASC != give.ASC || got.ASCQ != give.ASCQ || got.Info != give.Info {
		t.Errorf("round trip: got %+v, want %+v", got, give)
	}
}

func TestSenseNoInfoValidBit(t *testing.T) {
	give := &Sense{Key: SenseIllegalRequest, ASC: ASCInvalidOpcode}
	enc := give.Encode()
	if enc[0]&0x80 != 0 {
		t.Error("information-valid bit set without Info")
	}
	got, err := DecodeSense(enc)
	if err != nil {
		t.Fatalf("DecodeSense: %v", err)
	}
	if got.Info != 0 {
		t.Errorf("Info = %d, want 0", got.Info)
	}
}

func TestSenseDecodeErrors(t *testing.T) {
	if _, err := DecodeSense([]byte{0x70}); err == nil {
		t.Error("DecodeSense(short): want error")
	}
	bad := make([]byte, 18)
	bad[0] = 0x33
	if _, err := DecodeSense(bad); err == nil {
		t.Error("DecodeSense(bad response code): want error")
	}
}

func TestSenseAsError(t *testing.T) {
	var err error = IllegalRequest(ASCInvalidFieldInCDB)
	if !strings.Contains(err.Error(), "ILLEGAL REQUEST") {
		t.Errorf("Error() = %q, want it to mention ILLEGAL REQUEST", err.Error())
	}
}

func TestSenseKeyStrings(t *testing.T) {
	if SenseMediumError.String() != "MEDIUM ERROR" {
		t.Errorf("SenseMediumError.String() = %q", SenseMediumError.String())
	}
	if got := SenseKey(0xF).String(); got != "SENSE(0xf)" {
		t.Errorf("unknown key String() = %q", got)
	}
}

func TestStatusStrings(t *testing.T) {
	tests := []struct {
		give Status
		want string
	}{
		{StatusGood, "GOOD"},
		{StatusCheckCondition, "CHECK CONDITION"},
		{StatusBusy, "BUSY"},
		{StatusTaskSetFull, "TASK SET FULL"},
		{Status(0x55), "STATUS(0x55)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Status(%#x).String() = %q, want %q", byte(tt.give), got, tt.want)
		}
	}
}

func TestInquiryRoundTrip(t *testing.T) {
	give := &InquiryData{Vendor: "STORM", Product: "VIRTUAL-VOL", Revision: "1.0"}
	enc := give.Encode()
	if len(enc) != 36 {
		t.Fatalf("Encode length = %d, want 36", len(enc))
	}
	if got := string(enc[8:36]); got != "STORM   VIRTUAL-VOL     1.0 " {
		t.Errorf("vendor/product/revision = %q", got)
	}
}

func TestInquiryTruncatesLongStrings(t *testing.T) {
	give := &InquiryData{Vendor: "VERYLONGVENDOR", Product: "P", Revision: "1"}
	if got := string(give.Encode()[8:16]); got != "VERYLONG" {
		t.Errorf("Vendor = %q, want truncation to 8 chars", got)
	}
}

func TestCapacityRoundTrip10(t *testing.T) {
	give := Capacity{LastLBA: 99, BlockSize: 512}
	got, err := DecodeCapacity10(give.EncodeCapacity10())
	if err != nil {
		t.Fatalf("DecodeCapacity10: %v", err)
	}
	if got != give {
		t.Errorf("round trip: got %+v, want %+v", got, give)
	}
	if got.Blocks() != 100 {
		t.Errorf("Blocks = %d, want 100", got.Blocks())
	}
}

func TestCapacity10Saturates(t *testing.T) {
	give := Capacity{LastLBA: 1 << 40, BlockSize: 512}
	got, err := DecodeCapacity10(give.EncodeCapacity10())
	if err != nil {
		t.Fatalf("DecodeCapacity10: %v", err)
	}
	if got.LastLBA != 0xFFFFFFFF {
		t.Errorf("LastLBA = %d, want saturation to 0xFFFFFFFF", got.LastLBA)
	}
}

func TestCapacityRoundTrip16(t *testing.T) {
	give := Capacity{LastLBA: 1 << 40, BlockSize: 4096}
	got, err := DecodeCapacity16(give.EncodeCapacity16())
	if err != nil {
		t.Fatalf("DecodeCapacity16: %v", err)
	}
	if got != give {
		t.Errorf("round trip: got %+v, want %+v", got, give)
	}
}

func TestCapacityDecodeShort(t *testing.T) {
	if _, err := DecodeCapacity10(make([]byte, 4)); err == nil {
		t.Error("DecodeCapacity10(short): want error")
	}
	if _, err := DecodeCapacity16(make([]byte, 4)); err == nil {
		t.Error("DecodeCapacity16(short): want error")
	}
}

// encode is EncodeInto into a fresh buffer, cut to the CDB's length.
func encode(c *CDB) ([]byte, error) {
	b := make([]byte, 16)
	n, err := c.EncodeInto(b)
	return b[:n], err
}

func readCDB(lba uint64, blocks uint32) *CDB {
	c := ReadCDB(lba, blocks)
	return &c
}

func writeCDB(lba uint64, blocks uint32) *CDB {
	c := WriteCDB(lba, blocks)
	return &c
}

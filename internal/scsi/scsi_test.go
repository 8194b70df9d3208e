package scsi

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDBRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		give *CDB
	}{
		{"read10", NewRead(1234, 8)},
		{"write10", NewWrite(0xFFFFFFFF, 0xFFFF)},
		{"read16", NewRead(1<<40, 8)},
		{"write16", NewWrite(7, 1<<20)},
		{"capacity10", NewReadCapacity10()},
		{"capacity16", NewReadCapacity16()},
		{"inquiry", NewInquiry(96)},
		{"tur", NewTestUnitReady()},
		{"sync", NewSyncCache(100, 50)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc, err := tt.give.Encode()
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
			c = NewWrite(lba, blocks)
		} else {
			c = NewRead(lba, blocks)
		}
		enc, err := c.Encode()
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
	if got := NewRead(1<<33, 1).Op; got != OpRead16 {
		t.Errorf("NewRead(huge lba).Op = 0x%02x, want READ(16)", got)
	}
	if got := NewRead(10, 1<<17).Op; got != OpRead16 {
		t.Errorf("NewRead(huge count).Op = 0x%02x, want READ(16)", got)
	}
	if got := NewWrite(10, 4).Op; got != OpWrite10 {
		t.Errorf("NewWrite(small).Op = 0x%02x, want WRITE(10)", got)
	}
}

func TestCDBEncodeRangeErrors(t *testing.T) {
	// Force a 10-byte opcode with out-of-range fields.
	c := &CDB{Op: OpRead10, LBA: 1 << 33}
	if _, err := c.Encode(); err == nil {
		t.Error("Encode READ(10) with 33-bit LBA: want error")
	}
	c = &CDB{Op: OpWrite10, Blocks: 1 << 17}
	if _, err := c.Encode(); err == nil {
		t.Error("Encode WRITE(10) with 17-bit count: want error")
	}
	c = &CDB{Op: 0x42}
	if _, err := c.Encode(); err == nil {
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
	if !NewRead(0, 1).IsRead() || NewRead(0, 1).IsWrite() {
		t.Error("READ classification wrong")
	}
	if !NewWrite(0, 1).IsWrite() || NewWrite(0, 1).IsRead() {
		t.Error("WRITE classification wrong")
	}
	if !NewRead(0, 1).IsMediumAccess() || NewInquiry(36).IsMediumAccess() {
		t.Error("IsMediumAccess classification wrong")
	}
	if !NewInquiry(36).IsRead() {
		t.Error("INQUIRY should be a read-direction command")
	}
}

func TestCDBString(t *testing.T) {
	tests := []struct {
		give *CDB
		want string
	}{
		{NewRead(5, 2), "READ lba=5 blocks=2"},
		{NewWrite(9, 1), "WRITE lba=9 blocks=1"},
		{NewTestUnitReady(), "TEST UNIT READY"},
		{&CDB{Op: 0x99}, "CDB(0x99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestSenseRoundTrip(t *testing.T) {
	give := &Sense{Key: SenseMediumError, ASC: ASCWriteError, ASCQ: 0x02, Info: 777}
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
	got, err := DecodeInquiry(enc)
	if err != nil {
		t.Fatalf("DecodeInquiry: %v", err)
	}
	if *got != *give {
		t.Errorf("round trip: got %+v, want %+v", got, give)
	}
}

func TestInquiryTruncatesLongStrings(t *testing.T) {
	give := &InquiryData{Vendor: "VERYLONGVENDOR", Product: "P", Revision: "1"}
	got, err := DecodeInquiry(give.Encode())
	if err != nil {
		t.Fatalf("DecodeInquiry: %v", err)
	}
	if got.Vendor != "VERYLONG" {
		t.Errorf("Vendor = %q, want truncation to 8 chars", got.Vendor)
	}
}

func TestInquiryDecodeShort(t *testing.T) {
	if _, err := DecodeInquiry(make([]byte, 10)); err == nil {
		t.Error("DecodeInquiry(short): want error")
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
	if got.Blocks() != 100 || got.Bytes() != 51200 {
		t.Errorf("Blocks/Bytes = %d/%d, want 100/51200", got.Blocks(), got.Bytes())
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

func TestEncodeSetsRaw(t *testing.T) {
	c := NewRead(8, 2)
	enc, err := c.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(c.Raw, enc) {
		t.Error("Encode did not record Raw bytes")
	}
}

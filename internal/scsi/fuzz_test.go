package scsi

import "testing"

// FuzzDecodeCDB feeds arbitrary bytes to DecodeInto, the parser of every CDB
// a target or relay takes off the wire. It must return an error or a CDB
// and never panic; a decoded READ or WRITE must re-encode to a CDB that
// addresses the same extent.
func FuzzDecodeCDB(f *testing.F) {
	for _, tt := range roundTripCDBs {
		enc, err := encode(tt.give)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1]) // one byte short
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var c CDB
		if err := DecodeInto(&c, b); err != nil {
			return
		}
		if c.Op != b[0] || len(c.Raw) != len(b) {
			t.Fatalf("decoded op 0x%02x from %d bytes, input op 0x%02x in %d bytes", c.Op, len(c.Raw), b[0], len(b))
		}
		switch c.Op {
		case OpRead10, OpRead16, OpWrite10, OpWrite16:
		default:
			return
		}
		enc, err := encode(&c)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", c, err)
		}
		var again CDB
		if err := DecodeInto(&again, enc); err != nil {
			t.Fatalf("decode re-encoded %x: %v", enc, err)
		}
		if again.Op != c.Op || again.LBA != c.LBA || again.Blocks != c.Blocks {
			t.Fatalf("re-encoded CDB addresses {op=0x%02x lba=%d blocks=%d}, decoded {op=0x%02x lba=%d blocks=%d}",
				again.Op, again.LBA, again.Blocks, c.Op, c.LBA, c.Blocks)
		}
	})
}

// FuzzDecodeSense feeds arbitrary bytes to DecodeSense, which parses the
// sense data an initiator takes from a target's response. It must return an
// error or sense data and never panic; decoded sense data must survive its
// own encoding.
func FuzzDecodeSense(f *testing.F) {
	enc := roundTripSense.Encode()
	f.Add(enc)
	f.Add(enc[:14])
	f.Add(IllegalRequest(ASCInvalidOpcode).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSense(b)
		if err != nil {
			return
		}
		if s.Key > 0x0F {
			t.Fatalf("sense key %#x out of its 4 bits", byte(s.Key))
		}
		again, err := DecodeSense(s.Encode())
		if err != nil {
			t.Fatalf("decode re-encoded %+v: %v", *s, err)
		}
		if *again != *s {
			t.Fatalf("sense %+v re-decodes as %+v", *s, *again)
		}
	})
}

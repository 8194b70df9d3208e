package iscsi

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// pduSeeds are wire streams built from the round-trip tests' messages:
// each message alone, all of them back to back, and damaged copies (a cut
// stream, an AHS length, a data segment claiming more than follows).
func pduSeeds() [][]byte {
	cmd := &SCSICommand{Final: true, Write: true, LUN: 3, ITT: 42, CmdSN: 7, ExpStatSN: 9,
		ExpectedDataTransferLength: 4096, Data: bytes.Repeat([]byte{0xAB}, 101)}
	login := &LoginRequest{Transit: true, CSG: StageOperational, NSG: StageFullFeature, ITT: 1, CmdSN: 1,
		Pairs: map[string]string{KeyInitiatorName: "iqn.2016-04.edu.purdue.storm:vm1", KeyTargetName: "iqn.2016-04.edu.purdue.storm:vol1"}}
	msgs := []*PDU{
		cmd.EncodeInto(&PDU{}),
		(&SCSIResponse{ITT: 11, Status: 0x02, StatSN: 100, Sense: []byte{0x70, 0, 5, 0, 0, 0, 0, 10}}).EncodeInto(&PDU{}),
		(&DataIn{Final: true, StatusPresent: true, ITT: 77, DataSN: 3, BufferOffset: 8192, Data: []byte("block data")}).EncodeInto(&PDU{}),
		(&DataOut{Final: true, ITT: 10, TTT: 20, BufferOffset: 65536, Data: bytes.Repeat([]byte{7}, 512)}).EncodeInto(&PDU{}),
		(&R2T{ITT: 9, TTT: 13, BufferOffset: 128 * 1024, DesiredLength: 64 * 1024}).EncodeInto(&PDU{}),
		(&NopOut{ITT: 1, TTT: 0xFFFFFFFF, CmdSN: 2, Data: []byte("ping")}).EncodeInto(&PDU{}),
		login.Encode(),
		(&LogoutRequest{Reason: 1, ITT: 2, CmdSN: 4}).Encode(),
	}
	var seeds [][]byte
	for _, p := range msgs {
		seeds = append(seeds, wireOf(p))
	}
	all := wireOf(msgs...)
	seeds = append(seeds, all, all[:len(all)-5], all[:BHSLen/2])
	ahs := append([]byte(nil), seeds[0]...)
	ahs[4] = 1
	long := append([]byte(nil), seeds[2]...)
	long[5], long[6], long[7] = 0xFF, 0xFF, 0xFF
	return append(seeds, ahs, long)
}

// FuzzPDUReader feeds arbitrary bytes to PDUReader.ReadPDU, the parser of
// every PDU off the wire. The first input byte picks how the stream is
// delivered (whole, one byte per read, half of each read). Each call must
// return a PDU or an error, never panic; a PDU must be exactly the bytes
// it was read from (header, then a data segment of the length the header
// claims, padded to 4 bytes), and ReadPDU, the allocating parser, must
// agree PDU for PDU. Every call consumes at least a header, so the loop is
// bounded by the input's length, and no segment exceeds MaxDataSegment.
func FuzzPDUReader(f *testing.F) {
	for _, s := range pduSeeds() {
		for mode := byte(0); mode < 3; mode++ {
			f.Add(append([]byte{mode}, s...))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		stream := in[1:]
		var r io.Reader = bytes.NewReader(stream)
		switch in[0] % 3 {
		case 1:
			r = iotest.OneByteReader(r)
		case 2:
			r = iotest.HalfReader(r)
		}
		pr := NewPDUReader(r)
		defer pr.Close()
		ref := bytes.NewReader(stream)
		off := 0
		for n := 0; ; n++ {
			if n > len(stream)/BHSLen {
				t.Fatalf("%d PDUs from %d bytes", n, len(stream))
			}
			p, err := pr.ReadPDU()
			want, refErr := ReadPDU(ref)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("PDU %d: reader err %v, ReadPDU err %v", n, err, refErr)
			}
			if err != nil {
				if p != nil {
					t.Fatalf("PDU %d: a PDU and an error (%v)", n, err)
				}
				if errors.Is(err, io.EOF) != (off == len(stream)) {
					t.Fatalf("PDU %d: err %v at offset %d of %d", n, err, off, len(stream))
				}
				return
			}
			seg := p.DataSegmentLength()
			end := off + BHSLen + pad4(seg)
			switch {
			case p == nil:
				t.Fatalf("PDU %d: nil PDU and nil error", n)
			case seg > MaxDataSegment || end > len(stream):
				t.Fatalf("PDU %d: %d-byte segment at offset %d of %d", n, seg, off, len(stream))
			case !bytes.Equal(p.BHS[:], stream[off:off+BHSLen]) || !bytes.Equal(p.Data, stream[off+BHSLen:off+BHSLen+seg]):
				t.Fatalf("PDU %d at offset %d is not the bytes it was read from", n, off)
			case p.BHS != want.BHS || !bytes.Equal(p.Data, want.Data):
				t.Fatalf("PDU %d: reader and ReadPDU disagree", n)
			}
			p.Release()
			want.Release()
			off = end
		}
	})
}

// pairSeeds are login data segments: the round-trip tests' key sets, the
// malformed and trailing-garbage cases, and hostile values for every
// negotiated key.
func pairSeeds() [][]byte {
	seeds := [][]byte{
		EncodePairs(DefaultParams().Pairs()),
		EncodePairs(map[string]string{KeyMaxRecvDSL: "8192", KeyFirstBurst: "16384", KeyMaxBurst: "32768", KeyImmediateData: "No", KeyInitialR2T: "Yes"}),
		EncodePairs(map[string]string{KeyMaxBurst: "4096"}),
		[]byte("novalue\x00"),
		[]byte("a=1\x00b=2"),
		[]byte("=\x00\x00==\x00"),
	}
	for _, k := range []string{KeyMaxRecvDSL, KeyFirstBurst, KeyMaxBurst, KeyMaxConnections} {
		for _, v := range []string{"0", "-1", "99999999999999999999", "12abc", ""} {
			seeds = append(seeds, EncodePairs(map[string]string{k: v}))
		}
	}
	return seeds
}

// FuzzLoginPairs runs a login data segment through DecodePairs and then
// Params.Negotiate against the defaults, the path every login key takes.
// Decoding returns pairs or an error; decoded pairs survive an encode and
// decode unchanged. A negotiation that succeeds only ever narrows: every
// length stays positive and no larger than the local offer, FirstBurst
// stays within MaxBurst, ImmediateData is ANDed and InitialR2T ORed.
func FuzzLoginPairs(f *testing.F) {
	for _, s := range pairSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, err := DecodePairs(data)
		if err != nil {
			return
		}
		if again, err := DecodePairs(EncodePairs(pairs)); err != nil || !reflect.DeepEqual(again, pairs) {
			t.Fatalf("pairs %q re-decode to %q, %v", pairs, again, err)
		}
		local := DefaultParams()
		got, err := local.Negotiate(pairs)
		if err != nil {
			return
		}
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{KeyMaxRecvDSL, got.MaxRecvDataSegmentLength, local.MaxRecvDataSegmentLength},
			{KeyFirstBurst, got.FirstBurstLength, local.FirstBurstLength},
			{KeyMaxBurst, got.MaxBurstLength, local.MaxBurstLength},
			{KeyMaxConnections, got.MaxConnections, local.MaxConnections},
		} {
			if c.got < 1 || c.got > c.want {
				t.Fatalf("%s negotiated to %d, want 1..%d", c.name, c.got, c.want)
			}
		}
		if got.FirstBurstLength > got.MaxBurstLength {
			t.Fatalf("FirstBurst %d exceeds MaxBurst %d", got.FirstBurstLength, got.MaxBurstLength)
		}
		if got.ImmediateData && !local.ImmediateData || !got.InitialR2T && local.InitialR2T {
			t.Fatalf("booleans widened: %+v from %+v", got, local)
		}
	})
}

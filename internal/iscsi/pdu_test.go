package iscsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPDUWireRoundTrip(t *testing.T) {
	cmd := &SCSICommand{
		Final:                      true,
		Write:                      true,
		LUN:                        3,
		ITT:                        42,
		ExpectedDataTransferLength: 4096,
		CmdSN:                      7,
		ExpStatSN:                  9,
		Data:                       bytes.Repeat([]byte{0xAB}, 101), // non-multiple of 4 to exercise padding
	}
	var buf bytes.Buffer
	p := cmd.EncodeInto(&PDU{})
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if buf.Len() != BHSLen+104 {
		t.Errorf("wire length = %d, want %d (padded)", buf.Len(), BHSLen+104)
	}
	got, err := ReadPDU(&buf)
	if err != nil {
		t.Fatalf("ReadPDU: %v", err)
	}
	if got.Op() != OpSCSICommand {
		t.Errorf("Op() = %v, want SCSI-Command", got.Op())
	}
	parsed, err := ParseSCSICommand(got)
	if err != nil {
		t.Fatalf("ParseSCSICommand: %v", err)
	}
	if !bytes.Equal(parsed.Data, cmd.Data) {
		t.Error("data segment corrupted through round trip")
	}
	if parsed.ITT != 42 || parsed.LUN != 3 || parsed.CmdSN != 7 {
		t.Errorf("fields lost: %+v", parsed)
	}
}

func TestReadPDUStream(t *testing.T) {
	// Several PDUs back to back must parse cleanly from a stream.
	var buf bytes.Buffer
	pdus := []*PDU{
		(&NopOut{ITT: 1, CmdSN: 1}).EncodeInto(&PDU{}),
		(&SCSICommand{ITT: 2, Read: true, Final: true}).EncodeInto(&PDU{}),
		(&DataIn{ITT: 2, Final: true, Data: []byte("payload!")}).EncodeInto(&PDU{}),
	}
	for _, p := range pdus {
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	for i, want := range pdus {
		got, err := ReadPDU(&buf)
		if err != nil {
			t.Fatalf("ReadPDU #%d: %v", i, err)
		}
		if got.Op() != want.Op() {
			t.Errorf("PDU #%d op = %v, want %v", i, got.Op(), want.Op())
		}
	}
	if _, err := ReadPDU(&buf); err != io.EOF {
		t.Errorf("ReadPDU on empty stream: err = %v, want EOF", err)
	}
}

func TestReadPDUTruncated(t *testing.T) {
	full := wireOf((&DataIn{ITT: 9, Data: []byte("0123456789")}).EncodeInto(&PDU{}))
	for _, cut := range []int{1, BHSLen - 1, BHSLen + 1, len(full) - 1} {
		if _, err := ReadPDU(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("ReadPDU(truncated at %d): want error", cut)
		}
	}
}

func TestReadPDURejectsAHS(t *testing.T) {
	p := (&NopOut{ITT: 1}).EncodeInto(&PDU{})
	raw := wireOf(p)
	raw[4] = 2 // TotalAHSLength
	if _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
		t.Error("ReadPDU with AHS: want error")
	}
}

// TestDecodePDU decodes one PDU from a buffer with the reader; a buffer
// that ends inside the BHS or inside the data segment yields
// io.ErrUnexpectedEOF, never a PDU.
func TestDecodePDU(t *testing.T) {
	raw := wireOf((&DataOut{ITT: 5, Data: []byte("abc")}).EncodeInto(&PDU{}))
	pr := NewPDUReader(bytes.NewReader(raw))
	got, err := pr.ReadPDU()
	if err != nil {
		t.Fatalf("ReadPDU: %v", err)
	}
	if got.Op() != OpSCSIDataOut || string(got.Data) != "abc" || got.ITT() != 5 {
		t.Errorf("decoded op=%v itt=%d data=%q", got.Op(), got.ITT(), got.Data)
	}
	if _, err := pr.ReadPDU(); err != io.EOF {
		t.Errorf("ReadPDU after the last PDU: err = %v, want EOF", err)
	}
	pr.Close()
	for _, cut := range []int{10, BHSLen + 2} {
		pr := NewPDUReader(bytes.NewReader(raw[:cut]))
		if p, err := pr.ReadPDU(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("ReadPDU(%d of %d bytes) = %v, %v; want io.ErrUnexpectedEOF", cut, len(raw), p, err)
		}
		pr.Close()
	}
}

// TestDecodePDUCopiesData: a decoded PDU's data segment does not alias the
// bytes it was read from.
func TestDecodePDUCopiesData(t *testing.T) {
	raw := wireOf((&DataOut{ITT: 5, Data: []byte("abc")}).EncodeInto(&PDU{}))
	pr := NewPDUReader(bytes.NewReader(raw))
	defer pr.Close()
	got, err := pr.ReadPDU()
	if err != nil {
		t.Fatalf("ReadPDU: %v", err)
	}
	raw[BHSLen] = 'X'
	if got.Data[0] == 'X' {
		t.Error("decoded PDU aliases the input buffer")
	}
}

func TestImmediateBit(t *testing.T) {
	var p PDU
	p.SetOp(OpSCSICommand)
	p.SetImmediate(true)
	if !p.Immediate() || p.Op() != OpSCSICommand {
		t.Error("immediate bit handling broken")
	}
	p.SetImmediate(false)
	if p.Immediate() {
		t.Error("SetImmediate(false) did not clear the bit")
	}
	p.SetImmediate(true)
	p.SetOp(OpNopOut)
	if !p.Immediate() {
		t.Error("SetOp cleared the immediate bit")
	}
}

func TestLUNRoundTrip(t *testing.T) {
	f := func(l uint16) bool {
		l &= 0x3FFF
		return ParseLUN(LUN(l)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpcodeStrings(t *testing.T) {
	for _, op := range []Opcode{
		OpNopOut, OpSCSICommand, OpTaskMgmtReq, OpLoginReq, OpTextReq,
		OpSCSIDataOut, OpLogoutReq, OpNopIn, OpSCSIResponse, OpTaskMgmtResp,
		OpLoginResp, OpTextResp, OpSCSIDataIn, OpLogoutResp, OpR2T, OpReject,
	} {
		if s := op.String(); s == "" || s[0] == 'O' && s != "Opcode(0x11)" {
			continue
		}
	}
	if got := Opcode(0x11).String(); got != "Opcode(0x11)" {
		t.Errorf("unknown opcode String() = %q", got)
	}
}

func TestSCSIResponseRoundTrip(t *testing.T) {
	give := &SCSIResponse{
		ITT:           11,
		Response:      RespCompleted,
		Status:        0x02,
		StatSN:        100,
		ExpCmdSN:      101,
		MaxCmdSN:      164,
		ResidualCount: 512,
		Underflow:     true,
		Sense:         []byte{0x70, 0, 5, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0x24, 0},
	}
	var got SCSIResponse
	if err := ParseSCSIResponseInto(&got, roundTrip(t, give.EncodeInto(&PDU{}))); err != nil {
		t.Fatalf("ParseSCSIResponseInto: %v", err)
	}
	if !reflect.DeepEqual(&got, give) {
		t.Errorf("round trip:\n got  %+v\n want %+v", got, give)
	}
}

func TestSCSIResponseBadSenseLength(t *testing.T) {
	p := (&SCSIResponse{ITT: 1}).EncodeInto(&PDU{})
	p.setDataSegment([]byte{0xFF, 0xFF, 0x00}) // claims 65535 sense bytes
	if err := ParseSCSIResponseInto(&SCSIResponse{}, p); err == nil {
		t.Error("want error for sense length exceeding data segment")
	}
}

func TestDataInRoundTrip(t *testing.T) {
	give := &DataIn{
		Final:         true,
		StatusPresent: true,
		Status:        0,
		LUN:           2,
		ITT:           77,
		TTT:           0xFFFFFFFF,
		StatSN:        5,
		ExpCmdSN:      6,
		MaxCmdSN:      70,
		DataSN:        3,
		BufferOffset:  8192,
		Data:          []byte("block data"),
	}
	var got DataIn
	if err := ParseDataInInto(&got, roundTrip(t, give.EncodeInto(&PDU{}))); err != nil {
		t.Fatalf("ParseDataInInto: %v", err)
	}
	if !reflect.DeepEqual(&got, give) {
		t.Errorf("round trip:\n got  %+v\n want %+v", got, give)
	}
}

func TestDataOutRoundTrip(t *testing.T) {
	give := &DataOut{
		Final:        true,
		LUN:          1,
		ITT:          10,
		TTT:          20,
		ExpStatSN:    30,
		DataSN:       2,
		BufferOffset: 65536,
		Data:         bytes.Repeat([]byte{7}, 4096),
	}
	got, err := ParseDataOut(roundTrip(t, give.EncodeInto(&PDU{})))
	if err != nil {
		t.Fatalf("ParseDataOut: %v", err)
	}
	if !reflect.DeepEqual(got, give) {
		t.Error("DataOut round trip mismatch")
	}
}

func TestR2TRoundTrip(t *testing.T) {
	give := &R2T{
		LUN:           4,
		ITT:           9,
		TTT:           13,
		StatSN:        1,
		ExpCmdSN:      2,
		MaxCmdSN:      66,
		R2TSN:         0,
		BufferOffset:  128 * 1024,
		DesiredLength: 64 * 1024,
	}
	var got R2T
	if err := ParseR2TInto(&got, roundTrip(t, give.EncodeInto(&PDU{}))); err != nil {
		t.Fatalf("ParseR2TInto: %v", err)
	}
	if got != *give {
		t.Errorf("round trip: got %+v, want %+v", got, give)
	}
}

func TestNopRoundTrips(t *testing.T) {
	out := &NopOut{ITT: 1, TTT: 0xFFFFFFFF, CmdSN: 2, ExpStatSN: 3, Data: []byte("ping")}
	gotOut, err := ParseNopOut(roundTrip(t, out.EncodeInto(&PDU{})))
	if err != nil {
		t.Fatalf("ParseNopOut: %v", err)
	}
	if !reflect.DeepEqual(gotOut, out) {
		t.Errorf("NopOut round trip: got %+v, want %+v", gotOut, out)
	}
	in := &NopIn{ITT: 1, TTT: 5, StatSN: 2, ExpCmdSN: 3, MaxCmdSN: 60, Data: []byte("pong")}
	gotIn, err := ParseNopIn(roundTrip(t, in.EncodeInto(&PDU{})))
	if err != nil {
		t.Fatalf("ParseNopIn: %v", err)
	}
	if !reflect.DeepEqual(gotIn, in) {
		t.Errorf("NopIn round trip: got %+v, want %+v", gotIn, in)
	}
}

func TestLogoutRoundTrips(t *testing.T) {
	req := &LogoutRequest{Reason: 1, ITT: 2, CID: 3, CmdSN: 4, ExpStatSN: 5}
	gotReq, err := ParseLogoutRequest(roundTrip(t, req.Encode()))
	if err != nil {
		t.Fatalf("ParseLogoutRequest: %v", err)
	}
	if *gotReq != *req {
		t.Errorf("LogoutRequest round trip: got %+v, want %+v", gotReq, req)
	}
	resp := &LogoutResponse{Response: 1, ITT: 2, StatSN: 6, ExpCmdSN: 5, MaxCmdSN: 69}
	p := roundTrip(t, resp.Encode())
	if p.Op() != OpLogoutResp || p.BHS[2] != 1 || p.ITT() != 2 || binary.BigEndian.Uint32(p.BHS[24:28]) != 6 ||
		binary.BigEndian.Uint32(p.BHS[28:32]) != 5 || binary.BigEndian.Uint32(p.BHS[32:36]) != 69 {
		t.Errorf("LogoutResponse encoding: BHS %x", p.BHS)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	hdr := make([]byte, BHSLen)
	hdr[0] = byte(OpSCSICommand)
	give := &Reject{Reason: RejectInvalidPDUField, StatSN: 8, Header: hdr}
	got, err := ParseReject(roundTrip(t, give.Encode()))
	if err != nil {
		t.Fatalf("ParseReject: %v", err)
	}
	if got.Reason != give.Reason || !bytes.Equal(got.Header, give.Header) {
		t.Error("Reject round trip mismatch")
	}
}

func TestParseWrongOpcode(t *testing.T) {
	nop := (&NopOut{}).EncodeInto(&PDU{})
	if _, err := ParseSCSICommand(nop); err == nil {
		t.Error("ParseSCSICommand(NopOut): want error")
	}
	if err := ParseDataInInto(&DataIn{}, nop); err == nil {
		t.Error("ParseDataInInto(NopOut): want error")
	}
	if err := ParseR2TInto(&R2T{}, nop); err == nil {
		t.Error("ParseR2TInto(NopOut): want error")
	}
	if _, err := ParseLoginRequest(nop); err == nil {
		t.Error("ParseLoginRequest(NopOut): want error")
	}
}

func TestPDUDataSegmentProperty(t *testing.T) {
	// Property: any payload survives encode/decode through a stream.
	f := func(data []byte, itt uint32) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		d := &DataIn{ITT: itt, Data: data}
		var buf bytes.Buffer
		if _, err := d.EncodeInto(&PDU{}).WriteTo(&buf); err != nil {
			return false
		}
		p, err := ReadPDU(&buf)
		if err != nil {
			return false
		}
		var got DataIn
		if err := ParseDataInInto(&got, p); err != nil {
			return false
		}
		return got.ITT == itt && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func roundTrip(t *testing.T, p *PDU) *PDU {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadPDU(&buf)
	if err != nil {
		t.Fatalf("ReadPDU: %v", err)
	}
	return got
}

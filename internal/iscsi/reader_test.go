package iscsi

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestPDUReaderOwnsItsPDU pins the ownership rule of PDUReader.ReadPDU: the
// PDU it returns is the reader's and is overwritten by the next call, while a
// data segment moved out with TakeData belongs to the taker. A write command
// whose immediate data was taken must survive the R2T-solicited Data-Out
// train read behind it byte for byte — whether the train was already sitting
// in the staging window (one big read) or arrives in dribbles.
func TestPDUReaderOwnsItsPDU(t *testing.T) {
	imm := pattern(4096, 1)
	cmd := &SCSICommand{Final: true, Write: true, ITT: 7, CmdSN: 3, ExpectedDataTransferLength: 4096 + 3*8192, Data: imm}
	cmd.CDB[0] = 0x2A
	var wire bytes.Buffer
	if _, err := cmd.Encode().WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	var train [][]byte
	for i := 0; i < 3; i++ {
		seg := pattern(8192, byte(50+i))
		train = append(train, seg)
		dout := &DataOut{Final: i == 2, ITT: 7, TTT: 7, DataSN: uint32(i), BufferOffset: uint32(4096 + i*8192), Data: seg}
		if _, err := dout.Encode().WriteTo(&wire); err != nil {
			t.Fatal(err)
		}
	}

	for name, r := range map[string]io.Reader{
		"staged":   bytes.NewReader(wire.Bytes()),
		"dribbled": iotest.OneByteReader(bytes.NewReader(wire.Bytes())),
	} {
		t.Run(name, func(t *testing.T) {
			pr := NewPDUReader(r)
			defer pr.Close()
			first, err := pr.ReadPDU()
			if err != nil {
				t.Fatal(err)
			}
			var got SCSICommand
			if err := ParseSCSICommandInto(&got, first); err != nil {
				t.Fatal(err)
			}
			data, buf := first.TakeData()
			if buf == nil {
				t.Fatal("TakeData on a PDU read off the wire returned no buffer")
			}
			defer buf.Release()
			if first.Data != nil {
				t.Error("PDU still refers to a data segment it gave away")
			}

			for i, want := range train {
				p, err := pr.ReadPDU()
				if err != nil {
					t.Fatalf("Data-Out %d: %v", i, err)
				}
				if p != first {
					t.Fatalf("Data-Out %d came in a new PDU: ReadPDU must reuse the reader's own", i)
				}
				dout, err := ParseDataOut(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dout.Data, want) || dout.DataSN != uint32(i) {
					t.Fatalf("Data-Out %d: wrong segment", i)
				}
				p.Release()
			}
			if _, err := pr.ReadPDU(); err != io.EOF {
				t.Errorf("after the train: err = %v, want EOF", err)
			}

			// The reader's PDU now holds the last Data-Out; the command
			// parsed out of it earlier and the data taken from it do not care.
			if first.Op() != OpSCSIDataOut {
				t.Errorf("reader's PDU holds %v, want the last Data-Out", first.Op())
			}
			if got.ITT != 7 || got.CmdSN != 3 || !got.Write || got.CDB[0] != 0x2A || got.ExpectedDataTransferLength != 4096+3*8192 {
				t.Errorf("parsed command changed under later reads: %+v", got)
			}
			if !bytes.Equal(data, imm) || !bytes.Equal(got.Data, imm) {
				t.Error("taken immediate data changed under later reads")
			}
		})
	}
}

// TestParseSCSICommandIntoMatchesParse: the allocation-free form decodes
// exactly what ParseSCSICommand does and rejects the same PDUs.
func TestParseSCSICommandIntoMatchesParse(t *testing.T) {
	cmd := &SCSICommand{Immediate: true, Final: true, Read: true, LUN: 3, ITT: 9, ExpectedDataTransferLength: 512, CmdSN: 4, ExpStatSN: 5}
	cmd.CDB[0], cmd.CDB[15] = 0x28, 0xEE
	p := cmd.Encode()
	want, err := ParseSCSICommand(p)
	if err != nil {
		t.Fatal(err)
	}
	got := SCSICommand{ITT: 0xDEAD, Data: []byte("stale")} // reused target: every field must be overwritten
	if err := ParseSCSICommandInto(&got, p); err != nil {
		t.Fatal(err)
	}
	if got.Data != nil || got.ITT != want.ITT || got.CDB != want.CDB || got.LUN != want.LUN ||
		got.Immediate != want.Immediate || got.Read != want.Read || got.Write != want.Write ||
		got.CmdSN != want.CmdSN || got.ExpStatSN != want.ExpStatSN || got.ExpectedDataTransferLength != want.ExpectedDataTransferLength {
		t.Errorf("ParseSCSICommandInto = %+v, ParseSCSICommand = %+v", got, *want)
	}
	if err := ParseSCSICommandInto(&got, (&NopOut{}).Encode()); err == nil {
		t.Error("a NOP-Out parsed as a SCSI command")
	}
}

// TestVectoredWriteDropsPayloadAlias: a connection's encode target outlives
// every payload it sends, so after a vectored send its scratch vector must
// not still point at the payload (a pooled buffer by then back in the pool,
// or a large read buffer kept reachable by an idle connection).
func TestVectoredWriteDropsPayloadAlias(t *testing.T) {
	var p PDU
	p.setDataSegment(pattern(4096, 9))
	var w discardBuffers
	if n, err := p.WriteTo(&w); err != nil || n != int64(p.WireLen()) {
		t.Fatalf("WriteTo = %d, %v; want %d", n, err, p.WireLen())
	}
	if p.vec[1] != nil {
		t.Error("PDU still aliases the payload it sent")
	}
}

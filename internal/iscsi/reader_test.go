package iscsi

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/bufpool"
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

// frameStream delivers whole frames the way netsim does on an unmodelled
// path: TakeFrame hands over an unread head frame, Read copies out of the
// head frame (and a partly read head frame must be read, not taken).
type frameStream struct {
	frames [][]byte
	off    int            // bytes of frames[0] already read
	taken  []*bufpool.Buf // every frame handed over, in order
	reads  int
}

func (s *frameStream) TakeFrame() (*bufpool.Buf, bool, error) {
	if len(s.frames) == 0 {
		return nil, false, io.EOF
	}
	if s.off > 0 {
		return nil, false, nil
	}
	f := bufpool.Get(len(s.frames[0]))
	copy(f.B, s.frames[0])
	s.frames = s.frames[1:]
	s.taken = append(s.taken, f)
	return f, len(s.frames) > 0, nil
}

func (s *frameStream) Read(b []byte) (int, error) {
	if len(s.frames) == 0 {
		return 0, io.EOF
	}
	s.reads++
	n := copy(b, s.frames[0][s.off:])
	if s.off += n; s.off == len(s.frames[0]) {
		s.frames, s.off = s.frames[1:], 0
	}
	return n, nil
}

func dataOut(itt uint32, n int, seed byte) *PDU {
	return (&DataOut{ITT: itt, TTT: itt, Final: true, Data: pattern(n, seed)}).Encode()
}

func wireOf(pdus ...*PDU) []byte {
	var b []byte
	for _, p := range pdus {
		b = append(b, p.Bytes()...)
	}
	return b
}

// readAll decodes every PDU from pr, checking each against want byte for
// byte, and calls after(i, p) before the next ReadPDU.
func readAll(t *testing.T, pr *PDUReader, want []*PDU, after func(i int, p *PDU)) {
	t.Helper()
	for i, w := range want {
		p, err := pr.ReadPDU()
		if err != nil {
			t.Fatalf("PDU %d: %v", i, err)
		}
		if p.BHS != w.BHS || !bytes.Equal(p.Data, w.Data) {
			t.Fatalf("PDU %d (%v, %d data bytes) decoded as %v with %d", i, w.Op(), len(w.Data), p.Op(), len(p.Data))
		}
		after(i, p)
		p.Release()
	}
	if _, err := pr.ReadPDU(); err != io.EOF {
		t.Fatalf("after %d PDUs: err = %v, want EOF", len(want), err)
	}
}

// TestPDUReaderTakesFrames: on a stream that offers whole frames the reader
// reads nothing. A frame holding exactly one PDU becomes that PDU — its data
// aliases the frame and TakeData moves the frame out — and every other frame
// (a WritePDUs burst, a header-only PDU, a burst larger than the staging
// window) decodes byte for byte. Buffered stays non-zero while a frame is
// queued behind the PDU just read.
func TestPDUReaderTakesFrames(t *testing.T) {
	cmd := (&SCSICommand{Final: true, Write: true, ITT: 1, ExpectedDataTransferLength: 4096, Data: pattern(4096, 1)}).Encode()
	burst := []*PDU{dataOut(2, 8192, 2), dataOut(2, 8192, 3), dataOut(2, 1001, 4)}
	nop := (&NopOut{ITT: 3, TTT: 0xFFFFFFFF}).Encode()
	big := []*PDU{dataOut(4, 40000, 5), dataOut(4, 40000, 6)} // > readerBufSize together
	last := dataOut(5, 999, 7)
	want := append(append(append(append([]*PDU{cmd}, burst...), nop), big...), last)
	s := &frameStream{frames: [][]byte{wireOf(cmd), wireOf(burst...), wireOf(nop), wireOf(big...), wireOf(last)}}
	pr := NewPDUReader(s)
	defer pr.Close()

	var kept []byte
	var keptBuf *bufpool.Buf
	defer func() { keptBuf.Release() }()
	readAll(t, pr, want, func(i int, p *PDU) {
		if queued := i < len(want)-1; (pr.Buffered() > 0) != queued {
			t.Errorf("after PDU %d: Buffered() = %d with more input queued = %v", i, pr.Buffered(), queued)
		}
		if i == 0 {
			if &p.Data[0] != &s.taken[0].B[BHSLen] {
				t.Error("a one-PDU frame's data segment does not alias the frame")
			}
			kept, keptBuf = p.TakeData()
			if keptBuf != s.taken[0] || p.Data != nil {
				t.Fatal("TakeData did not move the taken frame out of the PDU")
			}
		}
		if i == len(want)-1 && &p.Data[0] != &s.taken[len(s.taken)-1].B[BHSLen] {
			t.Error("the last frame, again exactly one PDU, was copied")
		}
	})
	if s.reads != 0 {
		t.Errorf("%d reads on a stream that offered every frame whole", s.reads)
	}
	if !bytes.Equal(kept, cmd.Data) {
		t.Error("taken immediate data changed under later reads")
	}
}

// TestPDUReaderFramesAcrossBoundaries: frames need not end on a PDU boundary
// (a sender that writes a PDU in pieces, an untimed write above the largest
// pooled size). A header split across frames and a data segment running into
// the next frame, which is then partly read and must not be taken, decode
// byte for byte, and taking resumes on the next whole frame.
func TestPDUReaderFramesAcrossBoundaries(t *testing.T) {
	a, b, c, d := dataOut(1, 5000, 1), (&NopOut{ITT: 2, TTT: 0xFFFFFFFF}).Encode(), dataOut(3, 3000, 2), dataOut(4, 512, 3)
	e := dataOut(5, 2048, 4)
	stream := wireOf(a, b, c, d)
	cut1 := a.WireLen() + 20                // mid-header of b
	cut2 := cut1 + 28 + BHSLen + 1000       // mid-data of c
	cut3 := cut2 + 2000 + d.WireLen()/2 - 1 // mid-data of d
	s := &frameStream{frames: [][]byte{stream[:cut1], stream[cut1:cut2], stream[cut2:cut3], stream[cut3:], wireOf(e)}}
	pr := NewPDUReader(s)
	defer pr.Close()
	readAll(t, pr, []*PDU{a, b, c, d, e}, func(i int, p *PDU) {
		if i == 4 && &p.Data[0] != &s.taken[len(s.taken)-1].B[BHSLen] {
			t.Error("taking did not resume after a partly read frame")
		}
	})
}

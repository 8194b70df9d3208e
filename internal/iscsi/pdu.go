// Package iscsi implements the subset of the iSCSI protocol (RFC 7143) that
// carries block storage traffic between the StorM initiator, middle-boxes,
// and target: login/logout negotiation, SCSI command/response, Data-In,
// Data-Out, R2T flow control, and NOP keepalives.
//
// PDUs use the standard 48-byte basic header segment (BHS) followed by an
// optional data segment padded to a four-byte boundary. Header and data
// digests are not negotiated (DataDigest=None,HeaderDigest=None), matching
// the paper's prototype configuration. Middle-boxes rely on this package to
// decapsulate and re-encapsulate storage packets exactly as the prototype
// reuses Open-iSCSI's parsing logic.
package iscsi

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bufpool"
)

// BHSLen is the length of the basic header segment.
const BHSLen = 48

// Opcode identifies the PDU type. Initiator opcodes are 0x00-0x1F, target
// opcodes 0x20-0x3F.
type Opcode byte

// Initiator opcodes.
const (
	OpNopOut       Opcode = 0x00
	OpSCSICommand  Opcode = 0x01
	OpTaskMgmtReq  Opcode = 0x02
	OpLoginReq     Opcode = 0x03
	OpTextReq      Opcode = 0x04
	OpSCSIDataOut  Opcode = 0x05
	OpLogoutReq    Opcode = 0x06
	OpSNACKRequest Opcode = 0x10
)

// Target opcodes.
const (
	OpNopIn        Opcode = 0x20
	OpSCSIResponse Opcode = 0x21
	OpTaskMgmtResp Opcode = 0x22
	OpLoginResp    Opcode = 0x23
	OpTextResp     Opcode = 0x24
	OpSCSIDataIn   Opcode = 0x25
	OpLogoutResp   Opcode = 0x26
	OpR2T          Opcode = 0x31
	OpReject       Opcode = 0x3F
)

// String renders the opcode name.
func (o Opcode) String() string {
	switch o {
	case OpNopOut:
		return "NOP-Out"
	case OpSCSICommand:
		return "SCSI-Command"
	case OpTaskMgmtReq:
		return "TaskMgmt-Req"
	case OpLoginReq:
		return "Login-Req"
	case OpTextReq:
		return "Text-Req"
	case OpSCSIDataOut:
		return "Data-Out"
	case OpLogoutReq:
		return "Logout-Req"
	case OpNopIn:
		return "NOP-In"
	case OpSCSIResponse:
		return "SCSI-Response"
	case OpTaskMgmtResp:
		return "TaskMgmt-Resp"
	case OpLoginResp:
		return "Login-Resp"
	case OpTextResp:
		return "Text-Resp"
	case OpSCSIDataIn:
		return "Data-In"
	case OpLogoutResp:
		return "Logout-Resp"
	case OpR2T:
		return "R2T"
	case OpReject:
		return "Reject"
	default:
		return fmt.Sprintf("Opcode(0x%02x)", byte(o))
	}
}

// MaxDataSegment is the largest data segment this implementation accepts,
// guarding against corrupt length fields (the 24-bit wire maximum).
const MaxDataSegment = 1<<24 - 1

// PDU is a raw protocol data unit: the fixed basic header segment plus the
// (possibly empty) data segment. Typed views (SCSICommand, DataIn, ...) parse
// and build PDUs; forwarding paths can relay PDUs without interpretation.
type PDU struct {
	BHS  [BHSLen]byte
	Data []byte

	// dataBuf is the pooled backing store for Data when the PDU was read
	// with ReadPDU. Release returns it to the pool; PDUs whose data was
	// never pooled (typed Encode views) release as a no-op.
	dataBuf *bufpool.Buf

	// vec is WriteTo's header/payload/padding vector. It lives in the PDU
	// because a slice handed to an interface method escapes: built on
	// WriteTo's stack it would be one heap object per PDU sent.
	vec [3][]byte
}

// Release returns the PDU's pooled data segment, if any, to the buffer pool.
// After Release, Data must no longer be referenced. Calling Release on a PDU
// without pooled data (or twice, after the first call cleared it) is a no-op,
// so read loops can release unconditionally once a PDU is fully consumed.
func (p *PDU) Release() {
	if p.dataBuf != nil {
		p.dataBuf.Release()
		p.dataBuf = nil
		p.Data = nil
	}
}

// TakeData transfers ownership of the PDU's pooled data segment to the
// caller: the returned buffer backs the returned slice and the caller becomes
// responsible for releasing it. The PDU is left without data, so a subsequent
// Release is a no-op. PDUs whose data was never pooled (typed Encode views)
// return (nil, nil) and the caller must copy instead.
func (p *PDU) TakeData() ([]byte, *bufpool.Buf) {
	if p.dataBuf == nil {
		return nil, nil
	}
	data, buf := p.Data, p.dataBuf
	p.Data = nil
	p.dataBuf = nil
	return data, buf
}

// EncodeInto lets a raw PDU flow through encoder-driven send paths alongside
// the typed message views: the PDU is already wire-form, so it encodes as
// itself and the caller's scratch PDU is untouched.
func (p *PDU) EncodeInto(*PDU) *PDU { return p }

// SNAfter reports whether serial number a is after b in RFC 1982 serial
// arithmetic, which iSCSI mandates for StatSN/CmdSN/DataSN: the uint32
// counters wrap, so a plain a > b inverts at 2³².
func SNAfter(a, b uint32) bool { return int32(a-b) > 0 }

// Op returns the PDU opcode (with the immediate-delivery bit masked off).
func (p *PDU) Op() Opcode { return Opcode(p.BHS[0] & 0x3F) }

// Immediate reports whether the immediate-delivery bit is set.
func (p *PDU) Immediate() bool { return p.BHS[0]&0x40 != 0 }

// SetOp stores the opcode, preserving the immediate bit.
func (p *PDU) SetOp(op Opcode) { p.BHS[0] = p.BHS[0]&0x40 | byte(op) }

// SetImmediate sets or clears the immediate-delivery bit.
func (p *PDU) SetImmediate(v bool) {
	if v {
		p.BHS[0] |= 0x40
	} else {
		p.BHS[0] &^= 0x40
	}
}

// ITT returns the initiator task tag.
func (p *PDU) ITT() uint32 { return binary.BigEndian.Uint32(p.BHS[16:20]) }

// SetITT stores the initiator task tag.
func (p *PDU) SetITT(v uint32) { binary.BigEndian.PutUint32(p.BHS[16:20], v) }

// DataSegmentLength returns the 24-bit data segment length from the BHS.
func (p *PDU) DataSegmentLength() int {
	return int(p.BHS[5])<<16 | int(p.BHS[6])<<8 | int(p.BHS[7])
}

// setDataSegment stores data in the PDU and updates the BHS length field.
func (p *PDU) setDataSegment(data []byte) {
	p.Data = data
	n := len(data)
	p.BHS[5] = byte(n >> 16)
	p.BHS[6] = byte(n >> 8)
	p.BHS[7] = byte(n)
}

// WireLen returns the total encoded length including data padding.
func (p *PDU) WireLen() int { return BHSLen + pad4(len(p.Data)) }

// BuffersWriter is the vectored-send interface the netsim fabric implements:
// the header and payload segments go out as one send without an intermediate
// assembly copy (the writer copies each segment directly into its frames).
type BuffersWriter interface {
	WriteBuffers(bufs ...[]byte) (int, error)
}

// padZeros backs the ≤3 bytes of data-segment padding on the vectored path.
var padZeros [4]byte

// WriteTo serializes the PDU as a single send: header and payload combine
// either through the writer's vectored interface (no assembly copy) or into
// one pooled wire buffer. It implements io.WriterTo. The vectored path uses
// scratch space inside the PDU, so one PDU must not be written from two
// goroutines at once (send paths hold their connection's send lock).
func (p *PDU) WriteTo(w io.Writer) (int64, error) {
	if len(p.Data) > MaxDataSegment {
		return 0, fmt.Errorf("iscsi: data segment %d exceeds protocol maximum", len(p.Data))
	}
	if bw, ok := w.(BuffersWriter); ok {
		pad := pad4(len(p.Data)) - len(p.Data)
		p.vec = [3][]byte{p.BHS[:], p.Data, padZeros[:pad]}
		n, err := bw.WriteBuffers(p.vec[:]...)
		// Drop the payload alias: a long-lived encode target (a connection's
		// wirePDU) must not keep the last payload reachable while it idles.
		p.vec[1] = nil
		return int64(n), err
	}
	wire := bufpool.Get(p.WireLen())
	buf := wire.B
	copy(buf, p.BHS[:])
	copy(buf[BHSLen:], p.Data)
	// Zero the padding: pooled buffers carry stale bytes.
	for i := BHSLen + len(p.Data); i < len(buf); i++ {
		buf[i] = 0
	}
	n, err := w.Write(buf)
	wire.Release()
	return int64(n), err
}

// WritePDUs serializes a batch of PDUs as one send — a whole solicited burst
// or multi-segment Data-In sequence goes out in a single vectored write (or
// one pooled contiguous write when the writer has no vectored interface),
// instead of paying a wire rendezvous per PDU.
func WritePDUs(w io.Writer, pdus []PDU) (int64, error) {
	if len(pdus) == 1 {
		return pdus[0].WriteTo(w)
	}
	total := 0
	for i := range pdus {
		if len(pdus[i].Data) > MaxDataSegment {
			return 0, fmt.Errorf("iscsi: data segment %d exceeds protocol maximum", len(pdus[i].Data))
		}
		total += pdus[i].WireLen()
	}
	if bw, ok := w.(BuffersWriter); ok {
		vecs := make([][]byte, 0, 3*len(pdus))
		for i := range pdus {
			p := &pdus[i]
			pad := pad4(len(p.Data)) - len(p.Data)
			vecs = append(vecs, p.BHS[:], p.Data, padZeros[:pad])
		}
		n, err := bw.WriteBuffers(vecs...)
		return int64(n), err
	}
	wire := bufpool.Get(total)
	buf := wire.B[:0]
	for i := range pdus {
		p := &pdus[i]
		pad := pad4(len(p.Data)) - len(p.Data)
		buf = append(buf, p.BHS[:]...)
		buf = append(buf, p.Data...)
		buf = append(buf, padZeros[:pad]...)
	}
	n, err := w.Write(buf)
	wire.Release()
	return int64(n), err
}

// ReadPDU reads one PDU from the stream. The data segment is staged in a
// pooled buffer: callers on the hot path should call Release once the PDU is
// fully consumed; callers that skip Release only cost the pool a miss.
func ReadPDU(r io.Reader) (*PDU, error) {
	var p PDU
	if _, err := io.ReadFull(r, p.BHS[:]); err != nil {
		return nil, err
	}
	if ahs := p.BHS[4]; ahs != 0 {
		return nil, fmt.Errorf("iscsi: additional header segments unsupported (TotalAHSLength=%d)", ahs)
	}
	n := p.DataSegmentLength()
	if n > MaxDataSegment {
		return nil, fmt.Errorf("iscsi: data segment length %d exceeds protocol maximum", n)
	}
	if n > 0 {
		buf := bufpool.Get(pad4(n))
		if _, err := io.ReadFull(r, buf.B); err != nil {
			buf.Release()
			return nil, fmt.Errorf("iscsi: read data segment: %w", err)
		}
		p.Data = buf.B[:n]
		p.dataBuf = buf
	}
	return &p, nil
}

func pad4(n int) int { return (n + 3) &^ 3 }

// LUN packs a logical unit number into the 8-byte BHS representation using
// the flat addressing method for LUNs below 16384.
func LUN(lun uint16) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint16(b[0:2], lun&0x3FFF)
	return b
}

// ParseLUN extracts a flat-addressed LUN from its 8-byte representation.
func ParseLUN(b [8]byte) uint16 {
	return binary.BigEndian.Uint16(b[0:2]) & 0x3FFF
}

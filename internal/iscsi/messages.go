package iscsi

import (
	"encoding/binary"
	"fmt"
)

// SCSICommand is the typed view of a SCSI Command PDU (opcode 0x01).
type SCSICommand struct {
	Immediate bool
	Final     bool
	Read      bool
	Write     bool
	LUN       uint16
	ITT       uint32
	// ExpectedDataTransferLength is the total transfer size in bytes.
	ExpectedDataTransferLength uint32
	CmdSN                      uint32
	ExpStatSN                  uint32
	CDB                        [16]byte
	// Data carries immediate (unsolicited) write data, when negotiated.
	Data []byte
}

// Encode builds the wire PDU.
func (c *SCSICommand) Encode() *PDU { return c.EncodeInto(&PDU{}) }

// EncodeInto encodes into a caller-provided (typically per-session,
// reused) PDU, overwriting its previous contents.
func (c *SCSICommand) EncodeInto(p *PDU) *PDU {
	*p = PDU{}
	p.SetOp(OpSCSICommand)
	p.SetImmediate(c.Immediate)
	if c.Final {
		p.BHS[1] |= 0x80
	}
	if c.Read {
		p.BHS[1] |= 0x40
	}
	if c.Write {
		p.BHS[1] |= 0x20
	}
	lun := LUN(c.LUN)
	copy(p.BHS[8:16], lun[:])
	p.SetITT(c.ITT)
	binary.BigEndian.PutUint32(p.BHS[20:24], c.ExpectedDataTransferLength)
	binary.BigEndian.PutUint32(p.BHS[24:28], c.CmdSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], c.ExpStatSN)
	copy(p.BHS[32:48], c.CDB[:])
	p.setDataSegment(c.Data)
	return p
}

// ParseSCSICommand decodes a SCSI Command PDU.
func ParseSCSICommand(p *PDU) (*SCSICommand, error) {
	c := new(SCSICommand)
	if err := ParseSCSICommandInto(c, p); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseSCSICommandInto decodes p into c, a caller-owned (typically reused)
// struct. c.Data aliases p's data segment: it stays valid for as long as
// whoever holds that segment (the PDU, or the caller of its TakeData) does.
func ParseSCSICommandInto(c *SCSICommand, p *PDU) error {
	if p.Op() != OpSCSICommand {
		return opError(OpSCSICommand, p.Op())
	}
	var lun [8]byte
	copy(lun[:], p.BHS[8:16])
	*c = SCSICommand{
		Immediate:                  p.Immediate(),
		Final:                      p.BHS[1]&0x80 != 0,
		Read:                       p.BHS[1]&0x40 != 0,
		Write:                      p.BHS[1]&0x20 != 0,
		LUN:                        ParseLUN(lun),
		ITT:                        p.ITT(),
		ExpectedDataTransferLength: binary.BigEndian.Uint32(p.BHS[20:24]),
		CmdSN:                      binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpStatSN:                  binary.BigEndian.Uint32(p.BHS[28:32]),
		Data:                       p.Data,
	}
	copy(c.CDB[:], p.BHS[32:48])
	return nil
}

// Response codes for SCSIResponse.Response.
const (
	RespCompleted     byte = 0x00
	RespTargetFailure byte = 0x01
)

// SCSIResponse is the typed view of a SCSI Response PDU (opcode 0x21).
type SCSIResponse struct {
	ITT       uint32
	Response  byte
	Status    byte
	StatSN    uint32
	ExpCmdSN  uint32
	MaxCmdSN  uint32
	ExpDataSN uint32
	// ResidualCount reports an under/overflow of the expected transfer.
	ResidualCount uint32
	Underflow     bool
	Overflow      bool
	// Sense carries sense data for CHECK CONDITION status.
	Sense []byte
}

// Encode builds the wire PDU. Sense data, when present, is framed with the
// standard two-byte SenseLength prefix in the data segment.
func (r *SCSIResponse) Encode() *PDU { return r.EncodeInto(&PDU{}) }

// EncodeInto encodes into a caller-provided (typically per-session,
// reused) PDU, overwriting its previous contents.
func (r *SCSIResponse) EncodeInto(p *PDU) *PDU {
	*p = PDU{}
	p.SetOp(OpSCSIResponse)
	p.BHS[1] = 0x80 // F bit always set
	if r.Underflow {
		p.BHS[1] |= 0x02
	}
	if r.Overflow {
		p.BHS[1] |= 0x04
	}
	p.BHS[2] = r.Response
	p.BHS[3] = r.Status
	p.SetITT(r.ITT)
	binary.BigEndian.PutUint32(p.BHS[24:28], r.StatSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], r.ExpCmdSN)
	binary.BigEndian.PutUint32(p.BHS[32:36], r.MaxCmdSN)
	binary.BigEndian.PutUint32(p.BHS[36:40], r.ExpDataSN)
	binary.BigEndian.PutUint32(p.BHS[44:48], r.ResidualCount)
	if len(r.Sense) > 0 {
		data := make([]byte, 2+len(r.Sense))
		binary.BigEndian.PutUint16(data[0:2], uint16(len(r.Sense)))
		copy(data[2:], r.Sense)
		p.setDataSegment(data)
	}
	return p
}

// ParseSCSIResponse decodes a SCSI Response PDU.
func ParseSCSIResponse(p *PDU) (*SCSIResponse, error) {
	r := new(SCSIResponse)
	if err := ParseSCSIResponseInto(r, p); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseSCSIResponseInto decodes p into r, a caller-owned (typically reused)
// struct — the allocation-free form for response demultiplexing loops.
// r.Sense aliases p's data segment, so consume it before releasing p.
func ParseSCSIResponseInto(r *SCSIResponse, p *PDU) error {
	if p.Op() != OpSCSIResponse {
		return opError(OpSCSIResponse, p.Op())
	}
	*r = SCSIResponse{
		ITT:           p.ITT(),
		Response:      p.BHS[2],
		Status:        p.BHS[3],
		StatSN:        binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpCmdSN:      binary.BigEndian.Uint32(p.BHS[28:32]),
		MaxCmdSN:      binary.BigEndian.Uint32(p.BHS[32:36]),
		ExpDataSN:     binary.BigEndian.Uint32(p.BHS[36:40]),
		ResidualCount: binary.BigEndian.Uint32(p.BHS[44:48]),
		Underflow:     p.BHS[1]&0x02 != 0,
		Overflow:      p.BHS[1]&0x04 != 0,
	}
	if len(p.Data) >= 2 {
		n := int(binary.BigEndian.Uint16(p.Data[0:2]))
		if n > len(p.Data)-2 {
			return fmt.Errorf("iscsi: sense length %d exceeds data segment", n)
		}
		r.Sense = p.Data[2 : 2+n]
	}
	return nil
}

// DataIn is the typed view of a SCSI Data-In PDU (opcode 0x25).
type DataIn struct {
	Final bool
	// StatusPresent indicates phase-collapse: status is carried here and no
	// separate SCSI Response follows.
	StatusPresent bool
	Acknowledge   bool
	Status        byte
	LUN           uint16
	ITT           uint32
	TTT           uint32
	StatSN        uint32
	ExpCmdSN      uint32
	MaxCmdSN      uint32
	DataSN        uint32
	BufferOffset  uint32
	ResidualCount uint32
	Data          []byte
}

// Encode builds the wire PDU.
func (d *DataIn) Encode() *PDU { return d.EncodeInto(&PDU{}) }

// EncodeInto encodes into a caller-provided (typically per-session,
// reused) PDU, overwriting its previous contents.
func (d *DataIn) EncodeInto(p *PDU) *PDU {
	*p = PDU{}
	p.SetOp(OpSCSIDataIn)
	if d.Final {
		p.BHS[1] |= 0x80
	}
	if d.Acknowledge {
		p.BHS[1] |= 0x40
	}
	if d.StatusPresent {
		p.BHS[1] |= 0x01
		p.BHS[3] = d.Status
	}
	lun := LUN(d.LUN)
	copy(p.BHS[8:16], lun[:])
	p.SetITT(d.ITT)
	binary.BigEndian.PutUint32(p.BHS[20:24], d.TTT)
	binary.BigEndian.PutUint32(p.BHS[24:28], d.StatSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], d.ExpCmdSN)
	binary.BigEndian.PutUint32(p.BHS[32:36], d.MaxCmdSN)
	binary.BigEndian.PutUint32(p.BHS[36:40], d.DataSN)
	binary.BigEndian.PutUint32(p.BHS[40:44], d.BufferOffset)
	binary.BigEndian.PutUint32(p.BHS[44:48], d.ResidualCount)
	p.setDataSegment(d.Data)
	return p
}

// ParseDataIn decodes a Data-In PDU.
func ParseDataIn(p *PDU) (*DataIn, error) {
	d := new(DataIn)
	if err := ParseDataInInto(d, p); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseDataInInto decodes p into d, a caller-owned (typically reused)
// struct. d.Data aliases p's data segment, so consume it before releasing p.
func ParseDataInInto(d *DataIn, p *PDU) error {
	if p.Op() != OpSCSIDataIn {
		return opError(OpSCSIDataIn, p.Op())
	}
	var lun [8]byte
	copy(lun[:], p.BHS[8:16])
	*d = DataIn{
		Final:         p.BHS[1]&0x80 != 0,
		Acknowledge:   p.BHS[1]&0x40 != 0,
		StatusPresent: p.BHS[1]&0x01 != 0,
		Status:        p.BHS[3],
		LUN:           ParseLUN(lun),
		ITT:           p.ITT(),
		TTT:           binary.BigEndian.Uint32(p.BHS[20:24]),
		StatSN:        binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpCmdSN:      binary.BigEndian.Uint32(p.BHS[28:32]),
		MaxCmdSN:      binary.BigEndian.Uint32(p.BHS[32:36]),
		DataSN:        binary.BigEndian.Uint32(p.BHS[36:40]),
		BufferOffset:  binary.BigEndian.Uint32(p.BHS[40:44]),
		ResidualCount: binary.BigEndian.Uint32(p.BHS[44:48]),
		Data:          p.Data,
	}
	return nil
}

// DataOut is the typed view of a SCSI Data-Out PDU (opcode 0x05).
type DataOut struct {
	Final        bool
	LUN          uint16
	ITT          uint32
	TTT          uint32
	ExpStatSN    uint32
	DataSN       uint32
	BufferOffset uint32
	Data         []byte
}

// Encode builds the wire PDU.
func (d *DataOut) Encode() *PDU { return d.EncodeInto(&PDU{}) }

// EncodeInto encodes into a caller-provided (typically per-session,
// reused) PDU, overwriting its previous contents.
func (d *DataOut) EncodeInto(p *PDU) *PDU {
	*p = PDU{}
	p.SetOp(OpSCSIDataOut)
	if d.Final {
		p.BHS[1] |= 0x80
	}
	lun := LUN(d.LUN)
	copy(p.BHS[8:16], lun[:])
	p.SetITT(d.ITT)
	binary.BigEndian.PutUint32(p.BHS[20:24], d.TTT)
	binary.BigEndian.PutUint32(p.BHS[28:32], d.ExpStatSN)
	binary.BigEndian.PutUint32(p.BHS[36:40], d.DataSN)
	binary.BigEndian.PutUint32(p.BHS[40:44], d.BufferOffset)
	p.setDataSegment(d.Data)
	return p
}

// ParseDataOut decodes a Data-Out PDU.
func ParseDataOut(p *PDU) (*DataOut, error) {
	if p.Op() != OpSCSIDataOut {
		return nil, opError(OpSCSIDataOut, p.Op())
	}
	var lun [8]byte
	copy(lun[:], p.BHS[8:16])
	return &DataOut{
		Final:        p.BHS[1]&0x80 != 0,
		LUN:          ParseLUN(lun),
		ITT:          p.ITT(),
		TTT:          binary.BigEndian.Uint32(p.BHS[20:24]),
		ExpStatSN:    binary.BigEndian.Uint32(p.BHS[28:32]),
		DataSN:       binary.BigEndian.Uint32(p.BHS[36:40]),
		BufferOffset: binary.BigEndian.Uint32(p.BHS[40:44]),
		Data:         p.Data,
	}, nil
}

// R2T is the typed view of a Ready-To-Transfer PDU (opcode 0x31).
type R2T struct {
	LUN          uint16
	ITT          uint32
	TTT          uint32
	StatSN       uint32
	ExpCmdSN     uint32
	MaxCmdSN     uint32
	R2TSN        uint32
	BufferOffset uint32
	// DesiredLength is the number of Data-Out bytes solicited.
	DesiredLength uint32
}

// Encode builds the wire PDU.
func (r *R2T) Encode() *PDU { return r.EncodeInto(&PDU{}) }

// EncodeInto encodes into a caller-provided (typically per-session,
// reused) PDU, overwriting its previous contents.
func (r *R2T) EncodeInto(p *PDU) *PDU {
	*p = PDU{}
	p.SetOp(OpR2T)
	p.BHS[1] = 0x80
	lun := LUN(r.LUN)
	copy(p.BHS[8:16], lun[:])
	p.SetITT(r.ITT)
	binary.BigEndian.PutUint32(p.BHS[20:24], r.TTT)
	binary.BigEndian.PutUint32(p.BHS[24:28], r.StatSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], r.ExpCmdSN)
	binary.BigEndian.PutUint32(p.BHS[32:36], r.MaxCmdSN)
	binary.BigEndian.PutUint32(p.BHS[36:40], r.R2TSN)
	binary.BigEndian.PutUint32(p.BHS[40:44], r.BufferOffset)
	binary.BigEndian.PutUint32(p.BHS[44:48], r.DesiredLength)
	return p
}

// ParseR2T decodes an R2T PDU.
func ParseR2T(p *PDU) (*R2T, error) {
	r := new(R2T)
	if err := ParseR2TInto(r, p); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseR2TInto decodes p into r, a caller-owned (typically pooled) struct.
func ParseR2TInto(r *R2T, p *PDU) error {
	if p.Op() != OpR2T {
		return opError(OpR2T, p.Op())
	}
	var lun [8]byte
	copy(lun[:], p.BHS[8:16])
	*r = R2T{
		LUN:           ParseLUN(lun),
		ITT:           p.ITT(),
		TTT:           binary.BigEndian.Uint32(p.BHS[20:24]),
		StatSN:        binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpCmdSN:      binary.BigEndian.Uint32(p.BHS[28:32]),
		MaxCmdSN:      binary.BigEndian.Uint32(p.BHS[32:36]),
		R2TSN:         binary.BigEndian.Uint32(p.BHS[36:40]),
		BufferOffset:  binary.BigEndian.Uint32(p.BHS[40:44]),
		DesiredLength: binary.BigEndian.Uint32(p.BHS[44:48]),
	}
	return nil
}

// NopOut is the typed view of a NOP-Out PDU (ping or response to NOP-In).
type NopOut struct {
	ITT       uint32
	TTT       uint32
	CmdSN     uint32
	ExpStatSN uint32
	Data      []byte
}

// Encode builds the wire PDU. NOP-Out is always sent immediate here.
func (n *NopOut) Encode() *PDU { return n.EncodeInto(&PDU{}) }

// EncodeInto encodes into a caller-provided (typically per-session,
// reused) PDU, overwriting its previous contents.
func (n *NopOut) EncodeInto(p *PDU) *PDU {
	*p = PDU{}
	p.SetOp(OpNopOut)
	p.SetImmediate(true)
	p.BHS[1] = 0x80
	p.SetITT(n.ITT)
	binary.BigEndian.PutUint32(p.BHS[20:24], n.TTT)
	binary.BigEndian.PutUint32(p.BHS[24:28], n.CmdSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], n.ExpStatSN)
	p.setDataSegment(n.Data)
	return p
}

// ParseNopOut decodes a NOP-Out PDU.
func ParseNopOut(p *PDU) (*NopOut, error) {
	if p.Op() != OpNopOut {
		return nil, opError(OpNopOut, p.Op())
	}
	return &NopOut{
		ITT:       p.ITT(),
		TTT:       binary.BigEndian.Uint32(p.BHS[20:24]),
		CmdSN:     binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpStatSN: binary.BigEndian.Uint32(p.BHS[28:32]),
		Data:      p.Data,
	}, nil
}

// NopIn is the typed view of a NOP-In PDU.
type NopIn struct {
	ITT      uint32
	TTT      uint32
	StatSN   uint32
	ExpCmdSN uint32
	MaxCmdSN uint32
	Data     []byte
}

// Encode builds the wire PDU.
func (n *NopIn) Encode() *PDU { return n.EncodeInto(&PDU{}) }

// EncodeInto encodes into a caller-provided (typically per-session,
// reused) PDU, overwriting its previous contents.
func (n *NopIn) EncodeInto(p *PDU) *PDU {
	*p = PDU{}
	p.SetOp(OpNopIn)
	p.BHS[1] = 0x80
	p.SetITT(n.ITT)
	binary.BigEndian.PutUint32(p.BHS[20:24], n.TTT)
	binary.BigEndian.PutUint32(p.BHS[24:28], n.StatSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], n.ExpCmdSN)
	binary.BigEndian.PutUint32(p.BHS[32:36], n.MaxCmdSN)
	p.setDataSegment(n.Data)
	return p
}

// ParseNopIn decodes a NOP-In PDU.
func ParseNopIn(p *PDU) (*NopIn, error) {
	if p.Op() != OpNopIn {
		return nil, opError(OpNopIn, p.Op())
	}
	return &NopIn{
		ITT:      p.ITT(),
		TTT:      binary.BigEndian.Uint32(p.BHS[20:24]),
		StatSN:   binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpCmdSN: binary.BigEndian.Uint32(p.BHS[28:32]),
		MaxCmdSN: binary.BigEndian.Uint32(p.BHS[32:36]),
		Data:     p.Data,
	}, nil
}

// LogoutRequest is the typed view of a Logout Request PDU.
type LogoutRequest struct {
	// Reason 0 closes the session; 1 closes the connection.
	Reason    byte
	ITT       uint32
	CID       uint16
	CmdSN     uint32
	ExpStatSN uint32
}

// Encode builds the wire PDU.
func (l *LogoutRequest) Encode() *PDU {
	p := &PDU{}
	p.SetOp(OpLogoutReq)
	p.SetImmediate(true)
	p.BHS[1] = 0x80 | l.Reason&0x7F
	p.SetITT(l.ITT)
	binary.BigEndian.PutUint16(p.BHS[20:22], l.CID)
	binary.BigEndian.PutUint32(p.BHS[24:28], l.CmdSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], l.ExpStatSN)
	return p
}

// ParseLogoutRequest decodes a Logout Request PDU.
func ParseLogoutRequest(p *PDU) (*LogoutRequest, error) {
	if p.Op() != OpLogoutReq {
		return nil, opError(OpLogoutReq, p.Op())
	}
	return &LogoutRequest{
		Reason:    p.BHS[1] & 0x7F,
		ITT:       p.ITT(),
		CID:       binary.BigEndian.Uint16(p.BHS[20:22]),
		CmdSN:     binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpStatSN: binary.BigEndian.Uint32(p.BHS[28:32]),
	}, nil
}

// LogoutResponse is the typed view of a Logout Response PDU.
type LogoutResponse struct {
	Response byte
	ITT      uint32
	StatSN   uint32
	ExpCmdSN uint32
	MaxCmdSN uint32
}

// Encode builds the wire PDU.
func (l *LogoutResponse) Encode() *PDU {
	p := &PDU{}
	p.SetOp(OpLogoutResp)
	p.BHS[1] = 0x80
	p.BHS[2] = l.Response
	p.SetITT(l.ITT)
	binary.BigEndian.PutUint32(p.BHS[24:28], l.StatSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], l.ExpCmdSN)
	binary.BigEndian.PutUint32(p.BHS[32:36], l.MaxCmdSN)
	return p
}

// ParseLogoutResponse decodes a Logout Response PDU.
func ParseLogoutResponse(p *PDU) (*LogoutResponse, error) {
	if p.Op() != OpLogoutResp {
		return nil, opError(OpLogoutResp, p.Op())
	}
	return &LogoutResponse{
		Response: p.BHS[2],
		ITT:      p.ITT(),
		StatSN:   binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpCmdSN: binary.BigEndian.Uint32(p.BHS[28:32]),
		MaxCmdSN: binary.BigEndian.Uint32(p.BHS[32:36]),
	}, nil
}

// Reject is the typed view of a Reject PDU (opcode 0x3F).
type Reject struct {
	Reason byte
	StatSN uint32
	// Header is the BHS of the rejected PDU, carried in the data segment.
	Header []byte
}

// Reject reasons.
const (
	RejectProtocolError       byte = 0x04
	RejectCommandNotSupported byte = 0x05
	RejectInvalidPDUField     byte = 0x09
)

// Encode builds the wire PDU.
func (r *Reject) Encode() *PDU {
	p := &PDU{}
	p.SetOp(OpReject)
	p.BHS[1] = 0x80
	p.BHS[2] = r.Reason
	p.SetITT(0xFFFFFFFF)
	binary.BigEndian.PutUint32(p.BHS[24:28], r.StatSN)
	p.setDataSegment(r.Header)
	return p
}

// ParseReject decodes a Reject PDU.
func ParseReject(p *PDU) (*Reject, error) {
	if p.Op() != OpReject {
		return nil, opError(OpReject, p.Op())
	}
	return &Reject{
		Reason: p.BHS[2],
		StatSN: binary.BigEndian.Uint32(p.BHS[24:28]),
		Header: p.Data,
	}, nil
}

func opError(want, got Opcode) error {
	return fmt.Errorf("iscsi: expected %v PDU, got %v", want, got)
}

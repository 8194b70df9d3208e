package iscsi

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Login stages (CSG/NSG values).
const (
	StageSecurity    byte = 0
	StageOperational byte = 1
	StageFullFeature byte = 3
)

// Login status classes.
const (
	LoginStatusSuccess      byte = 0x00
	LoginStatusRedirect     byte = 0x01
	LoginStatusInitiatorErr byte = 0x02
	LoginStatusTargetErr    byte = 0x03
)

// Login status details (RFC 7143 subset) carried with a refusal so the
// initiator can distinguish "retry later" from "don't retry here". The
// target maps its typed error taxonomy onto these: a terminal refusal (for
// example a draining relay) advertises TargetRemoved under InitiatorErr,
// while overload advertises OutOfResources under TargetErr.
const (
	LoginDetailNone               byte = 0x00
	LoginDetailTargetRemoved      byte = 0x04 // class InitiatorErr: gone for good, do not log in again
	LoginDetailServiceUnavailable byte = 0x01 // class TargetErr: transient, retry later
	LoginDetailOutOfResources     byte = 0x02 // class TargetErr: overloaded, retry after backoff
)

// LoginRequest is the typed view of a Login Request PDU (opcode 0x03).
type LoginRequest struct {
	Transit   bool
	Continue  bool
	CSG, NSG  byte
	ISID      [6]byte
	TSIH      uint16
	ITT       uint32
	CID       uint16
	CmdSN     uint32
	ExpStatSN uint32
	// Pairs carries the key=value negotiation text.
	Pairs map[string]string
}

// Encode builds the wire PDU.
func (l *LoginRequest) Encode() *PDU {
	p := &PDU{}
	p.SetOp(OpLoginReq)
	p.SetImmediate(true)
	var flags byte
	if l.Transit {
		flags |= 0x80
	}
	if l.Continue {
		flags |= 0x40
	}
	flags |= (l.CSG & 0x3) << 2
	flags |= l.NSG & 0x3
	p.BHS[1] = flags
	p.BHS[2] = 0x00 // VersionMax
	p.BHS[3] = 0x00 // VersionMin
	copy(p.BHS[8:14], l.ISID[:])
	binary.BigEndian.PutUint16(p.BHS[14:16], l.TSIH)
	p.SetITT(l.ITT)
	binary.BigEndian.PutUint16(p.BHS[20:22], l.CID)
	binary.BigEndian.PutUint32(p.BHS[24:28], l.CmdSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], l.ExpStatSN)
	p.setDataSegment(EncodePairs(l.Pairs))
	return p
}

// ParseLoginRequest decodes a Login Request PDU.
func ParseLoginRequest(p *PDU) (*LoginRequest, error) {
	if p.Op() != OpLoginReq {
		return nil, opError(OpLoginReq, p.Op())
	}
	pairs, err := DecodePairs(p.Data)
	if err != nil {
		return nil, err
	}
	l := &LoginRequest{
		Transit:   p.BHS[1]&0x80 != 0,
		Continue:  p.BHS[1]&0x40 != 0,
		CSG:       (p.BHS[1] >> 2) & 0x3,
		NSG:       p.BHS[1] & 0x3,
		TSIH:      binary.BigEndian.Uint16(p.BHS[14:16]),
		ITT:       p.ITT(),
		CID:       binary.BigEndian.Uint16(p.BHS[20:22]),
		CmdSN:     binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpStatSN: binary.BigEndian.Uint32(p.BHS[28:32]),
		Pairs:     pairs,
	}
	copy(l.ISID[:], p.BHS[8:14])
	return l, nil
}

// LoginResponse is the typed view of a Login Response PDU (opcode 0x23).
type LoginResponse struct {
	Transit      bool
	Continue     bool
	CSG, NSG     byte
	ISID         [6]byte
	TSIH         uint16
	ITT          uint32
	StatSN       uint32
	ExpCmdSN     uint32
	MaxCmdSN     uint32
	StatusClass  byte
	StatusDetail byte
	Pairs        map[string]string
}

// Encode builds the wire PDU.
func (l *LoginResponse) Encode() *PDU {
	p := &PDU{}
	p.SetOp(OpLoginResp)
	var flags byte
	if l.Transit {
		flags |= 0x80
	}
	if l.Continue {
		flags |= 0x40
	}
	flags |= (l.CSG & 0x3) << 2
	flags |= l.NSG & 0x3
	p.BHS[1] = flags
	copy(p.BHS[8:14], l.ISID[:])
	binary.BigEndian.PutUint16(p.BHS[14:16], l.TSIH)
	p.SetITT(l.ITT)
	binary.BigEndian.PutUint32(p.BHS[24:28], l.StatSN)
	binary.BigEndian.PutUint32(p.BHS[28:32], l.ExpCmdSN)
	binary.BigEndian.PutUint32(p.BHS[32:36], l.MaxCmdSN)
	p.BHS[36] = l.StatusClass
	p.BHS[37] = l.StatusDetail
	p.setDataSegment(EncodePairs(l.Pairs))
	return p
}

// ParseLoginResponse decodes a Login Response PDU.
func ParseLoginResponse(p *PDU) (*LoginResponse, error) {
	if p.Op() != OpLoginResp {
		return nil, opError(OpLoginResp, p.Op())
	}
	pairs, err := DecodePairs(p.Data)
	if err != nil {
		return nil, err
	}
	l := &LoginResponse{
		Transit:      p.BHS[1]&0x80 != 0,
		Continue:     p.BHS[1]&0x40 != 0,
		CSG:          (p.BHS[1] >> 2) & 0x3,
		NSG:          p.BHS[1] & 0x3,
		TSIH:         binary.BigEndian.Uint16(p.BHS[14:16]),
		ITT:          p.ITT(),
		StatSN:       binary.BigEndian.Uint32(p.BHS[24:28]),
		ExpCmdSN:     binary.BigEndian.Uint32(p.BHS[28:32]),
		MaxCmdSN:     binary.BigEndian.Uint32(p.BHS[32:36]),
		StatusClass:  p.BHS[36],
		StatusDetail: p.BHS[37],
		Pairs:        pairs,
	}
	copy(l.ISID[:], p.BHS[8:14])
	return l, nil
}

// Standard negotiation keys used by this implementation. KeySourcePort is the
// StorM extension from the paper's modified "Login Session" code: the
// initiator exposes its TCP source port together with the IQN so that the
// platform can attribute the storage connection to a VM.
const (
	KeyInitiatorName  = "InitiatorName"
	KeyTargetName     = "TargetName"
	KeySessionType    = "SessionType"
	KeyMaxRecvDSL     = "MaxRecvDataSegmentLength"
	KeyFirstBurst     = "FirstBurstLength"
	KeyMaxBurst       = "MaxBurstLength"
	KeyImmediateData  = "ImmediateData"
	KeyInitialR2T     = "InitialR2T"
	KeyHeaderDigest   = "HeaderDigest"
	KeyDataDigest     = "DataDigest"
	KeyMaxConnections = "MaxConnections"
	KeySourcePort     = "X-edu.purdue.storm.SourcePort"
	KeyAttachedVM     = "X-edu.purdue.storm.AttachedVM"
)

// EncodePairs serializes key=value pairs as NUL-separated login/text data.
// Keys are emitted in sorted order for deterministic wire bytes.
func EncodePairs(pairs map[string]string) []byte {
	if len(pairs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(pairs[k])
		b.WriteByte(0)
	}
	return []byte(b.String())
}

// DecodePairs parses NUL-separated key=value login/text data.
func DecodePairs(data []byte) (map[string]string, error) {
	pairs := make(map[string]string)
	for len(data) > 0 {
		idx := indexByte(data, 0)
		var kv []byte
		if idx < 0 {
			kv, data = data, nil
		} else {
			kv, data = data[:idx], data[idx+1:]
		}
		if len(kv) == 0 {
			continue
		}
		eq := indexByte(kv, '=')
		if eq < 0 {
			return nil, fmt.Errorf("iscsi: malformed key=value pair %q", kv)
		}
		pairs[string(kv[:eq])] = string(kv[eq+1:])
	}
	return pairs, nil
}

func indexByte(b []byte, c byte) int {
	for i, v := range b {
		if v == c {
			return i
		}
	}
	return -1
}

// Params holds the operational parameters a session negotiates.
type Params struct {
	// MaxRecvDataSegmentLength bounds each Data-In/Data-Out data segment.
	MaxRecvDataSegmentLength int
	// FirstBurstLength bounds unsolicited (immediate) write data per command.
	FirstBurstLength int
	// MaxBurstLength bounds each solicited data sequence.
	MaxBurstLength int
	// ImmediateData allows write data inside the SCSI Command PDU.
	ImmediateData bool
	// InitialR2T requires an R2T before any solicited data when true.
	InitialR2T bool
	// MaxConnections bounds the number of connections the session may carry
	// (MC/S). Zero is treated as 1, the RFC default.
	MaxConnections int
}

// EffectiveMaxConnections resolves the MC/S connection bound, mapping the
// zero value (legacy Params literals) to the RFC default of 1.
func (p Params) EffectiveMaxConnections() int {
	if p.MaxConnections <= 0 {
		return 1
	}
	return p.MaxConnections
}

// DefaultParams mirrors the Open-iSCSI defaults used by the paper's
// prototype: immediate data on, initial R2T off, 256 KiB segments and
// first burst (node.session.iscsi.FirstBurstLength=262144), 16 MiB max
// burst.
func DefaultParams() Params {
	return Params{
		MaxRecvDataSegmentLength: 256 * 1024,
		FirstBurstLength:         256 * 1024,
		MaxBurstLength:           16 * 1024 * 1024,
		ImmediateData:            true,
		InitialR2T:               false,
		MaxConnections:           1,
	}
}

// Pairs renders the parameters as negotiation keys.
func (p Params) Pairs() map[string]string {
	return map[string]string{
		KeyMaxRecvDSL:     fmt.Sprintf("%d", p.MaxRecvDataSegmentLength),
		KeyFirstBurst:     fmt.Sprintf("%d", p.FirstBurstLength),
		KeyMaxBurst:       fmt.Sprintf("%d", p.MaxBurstLength),
		KeyImmediateData:  yesNo(p.ImmediateData),
		KeyInitialR2T:     yesNo(p.InitialR2T),
		KeyMaxConnections: fmt.Sprintf("%d", p.EffectiveMaxConnections()),
		KeyHeaderDigest:   "None",
		KeyDataDigest:     "None",
	}
}

// Negotiate merges the peer's offered keys into the parameters, taking the
// more conservative value for each (minimum lengths; logical AND/OR for the
// boolean keys per RFC 7143 result functions).
func (p Params) Negotiate(offered map[string]string) (Params, error) {
	out := p
	if v, ok := offered[KeyMaxRecvDSL]; ok {
		n, err := parsePositiveInt(KeyMaxRecvDSL, v)
		if err != nil {
			return out, err
		}
		out.MaxRecvDataSegmentLength = min(out.MaxRecvDataSegmentLength, n)
	}
	if v, ok := offered[KeyFirstBurst]; ok {
		n, err := parsePositiveInt(KeyFirstBurst, v)
		if err != nil {
			return out, err
		}
		out.FirstBurstLength = min(out.FirstBurstLength, n)
	}
	if v, ok := offered[KeyMaxBurst]; ok {
		n, err := parsePositiveInt(KeyMaxBurst, v)
		if err != nil {
			return out, err
		}
		out.MaxBurstLength = min(out.MaxBurstLength, n)
	}
	if v, ok := offered[KeyMaxConnections]; ok {
		n, err := parsePositiveInt(KeyMaxConnections, v)
		if err != nil {
			return out, err
		}
		out.MaxConnections = min(out.EffectiveMaxConnections(), n)
	}
	if v, ok := offered[KeyImmediateData]; ok {
		out.ImmediateData = out.ImmediateData && v == "Yes" // AND function
	}
	if v, ok := offered[KeyInitialR2T]; ok {
		out.InitialR2T = out.InitialR2T || v == "Yes" // OR function
	}
	if out.FirstBurstLength > out.MaxBurstLength {
		out.FirstBurstLength = out.MaxBurstLength
	}
	return out, nil
}

func parsePositiveInt(key, v string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n <= 0 {
		return 0, fmt.Errorf("iscsi: invalid %s value %q", key, v)
	}
	return n, nil
}

func yesNo(v bool) string {
	if v {
		return "Yes"
	}
	return "No"
}

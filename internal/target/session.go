package target

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blockdev"
	"repro/internal/bufpool"
	"repro/internal/iscsi"
	"repro/internal/obs"
	"repro/internal/scsi"
	"repro/internal/xerr"
)

// senseBusy is a pointer-identity marker, not real sense data: senseFor
// returns it for overload-classed device errors (a full write-back journal,
// a replicate box over its admission watermark) and sendResponse turns it
// into SCSI BUSY status with no sense — the standard "task set full, retry
// later" signal — instead of CHECK CONDITION, so initiators can tell
// backpressure from medium failure.
var senseBusy = &scsi.Sense{}

// maxTransfer bounds a single command's data transfer so a corrupt
// ExpectedDataTransferLength cannot allocate unbounded memory.
const maxTransfer = 64 << 20

// command is the state of one SCSI command from receipt to status. The read
// loop fills it from the reader's PDU, which the next ReadPDU overwrites, and
// moves the PDU's immediate data segment into it; from there the command
// owns everything it refers to.
type command struct {
	cmd iscsi.SCSICommand
	// imm backs cmd.Data (immediate write data); released when the command
	// completes, so a fully immediate write hands the wire buffer to the
	// device untouched.
	imm *bufpool.Buf
}

// transfer tracks one in-progress R2T-solicited write. buf is pooled staging
// owned by the command goroutine, which releases it once the device write
// completes.
type transfer struct {
	mu   sync.Mutex
	buf  []byte
	pbuf *bufpool.Buf
	// burst is signaled when the Final Data-Out of a solicited burst
	// arrives.
	burst chan struct{}
}

// release detaches the staging buffer (so a straggling Data-Out can no
// longer copy into it — handleDataOut copies under tr.mu) and returns it to
// the pool. Nil-safe for paths that never created a transfer.
func (tr *transfer) release() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	pb := tr.pbuf
	tr.buf, tr.pbuf = nil, nil
	tr.mu.Unlock()
	pb.Release()
}

// sessionKey identifies a session for MC/S connection joining and session
// reinstatement: RFC 7143 names a session by the initiator, its ISID, and the
// target it logged into.
type sessionKey struct {
	initiator string
	isid      [6]byte
	iqn       string
}

// session is one iSCSI session: the negotiated operational parameters, the
// device, and the task state shared by the session's connections. With MC/S
// a session carries up to the negotiated MaxConnections connections; the
// CmdSN window is session-wide while StatSN and sends are per connection.
type session struct {
	srv    *Server
	params iscsi.Params
	dev    blockdev.Device
	ownDev bool
	iqn    string
	key    sessionKey
	tsih   uint16

	lastCmdSN atomic.Uint32
	inflight  atomic.Int32

	xferMu sync.Mutex
	xfers  map[uint32]*transfer

	cmdWG sync.WaitGroup

	connMu sync.Mutex
	conns  map[uint16]*sessConn
	ended  bool

	// done is closed when the session ends, releasing command goroutines
	// blocked on data solicitation.
	done chan struct{}
}

// sessConn is one connection of a session. Commands keep connection
// allegiance: R2Ts, Data-In, and the response for a command go out on the
// connection that delivered it, with that connection's StatSN.
type sessConn struct {
	ss   *session
	conn net.Conn
	cid  uint16

	sendMu  sync.Mutex
	wirePDU iscsi.PDU // reusable encode target for outgoing PDUs, guarded by sendMu
	statSN  atomic.Uint32

	// inline is the command an inline-executing connection runs in its read
	// loop — one at a time by construction, so it needs no allocation.
	inline command
}

// serveConn runs one connection: login (creating or joining a session),
// full-feature phase, teardown.
func (s *Server) serveConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	sc, err := s.login(conn)
	if err != nil {
		s.logf("target: login on %v failed: %v", conn.RemoteAddr(), err)
		return
	}
	sc.run()
	sc.ss.detach(sc)
}

// login performs the single-round login exchange the initiator drives. A
// TSIH of zero creates a new session (reinstating any prior session with the
// same key); a non-zero TSIH joins an existing session as an MC/S connection.
func (s *Server) login(conn net.Conn) (*sessConn, error) {
	pdu, err := iscsi.ReadPDU(conn)
	if err != nil {
		return nil, fmt.Errorf("read login: %w", err)
	}
	req, err := iscsi.ParseLoginRequest(pdu)
	if err != nil {
		return nil, err
	}
	iqn := req.Pairs[iscsi.KeyTargetName]
	key := sessionKey{initiator: req.Pairs[iscsi.KeyInitiatorName], isid: req.ISID, iqn: iqn}
	reject := func(cause error) (*sessConn, error) {
		resp := &iscsi.LoginResponse{
			Transit:     true,
			CSG:         iscsi.StageOperational,
			NSG:         iscsi.StageFullFeature,
			ISID:        req.ISID,
			ITT:         req.ITT,
			StatSN:      1,
			ExpCmdSN:    req.CmdSN + 1,
			MaxCmdSN:    req.CmdSN + 1,
			StatusClass: iscsi.LoginStatusInitiatorErr,
		}
		// The refusal's wire status advertises the cause's error class so
		// the initiator spends its redial budget only where retrying can
		// help: terminal refusals (a draining relay) say "gone, don't
		// redial", overload says "retry after backoff".
		switch xerr.Classify(cause) {
		case xerr.Terminal:
			resp.StatusDetail = iscsi.LoginDetailTargetRemoved
		case xerr.Overload:
			resp.StatusClass = iscsi.LoginStatusTargetErr
			resp.StatusDetail = iscsi.LoginDetailOutOfResources
		case xerr.Transient:
			resp.StatusClass = iscsi.LoginStatusTargetErr
			resp.StatusDetail = iscsi.LoginDetailServiceUnavailable
		}
		if _, werr := resp.Encode().WriteTo(conn); werr != nil && cause == nil {
			cause = werr
		}
		return nil, cause
	}

	if req.TSIH != 0 {
		// MC/S join: attach this connection to the leading login's session.
		s.sessMu.Lock()
		ss := s.sessions[key]
		s.sessMu.Unlock()
		if ss == nil || ss.tsih != req.TSIH {
			return reject(fmt.Errorf("target: no session with TSIH %d for %q", req.TSIH, iqn))
		}
		sc, err := ss.attach(conn, req.CID)
		if err != nil {
			return reject(err)
		}
		resp := &iscsi.LoginResponse{
			Transit:     true,
			CSG:         iscsi.StageOperational,
			NSG:         iscsi.StageFullFeature,
			ISID:        req.ISID,
			TSIH:        ss.tsih,
			ITT:         req.ITT,
			StatSN:      1,
			ExpCmdSN:    ss.expCmdSN(),
			MaxCmdSN:    ss.maxCmdSN(),
			StatusClass: iscsi.LoginStatusSuccess,
			Pairs:       ss.params.Pairs(),
		}
		if _, err := resp.Encode().WriteTo(conn); err != nil {
			ss.detach(sc)
			return nil, fmt.Errorf("send login response: %w", err)
		}
		s.obsReg.Counter("iscsi.logins").Inc()
		return sc, nil
	}

	dev, owned, err := s.lookup(iqn, conn)
	if err != nil {
		return reject(err)
	}
	params, err := s.params.Negotiate(req.Pairs)
	if err != nil {
		if owned {
			_ = dev.Close()
		}
		return reject(err)
	}
	ss := &session{
		srv:    s,
		params: params,
		dev:    dev,
		ownDev: owned,
		iqn:    iqn,
		key:    key,
		xfers:  make(map[uint32]*transfer),
		conns:  make(map[uint16]*sessConn),
		done:   make(chan struct{}),
	}
	ss.lastCmdSN.Store(req.CmdSN)
	sc, err := ss.attach(conn, req.CID)
	if err != nil {
		if owned {
			_ = dev.Close()
		}
		return reject(err)
	}
	// Register under the session key, assigning the TSIH. A leading login
	// that collides with a live session reinstates it: the old session's
	// connections are closed and the new session takes the key.
	s.sessMu.Lock()
	old := s.sessions[key]
	s.tsihSeq++
	if s.tsihSeq == 0 {
		s.tsihSeq = 1
	}
	ss.tsih = s.tsihSeq
	s.sessions[key] = ss
	s.sessMu.Unlock()
	if old != nil {
		old.abort()
	}
	// The hook runs before the response goes out: the response is what lets
	// the initiator issue its first command, and whatever the hook records
	// (the platform's connection attribution) has to be in place by then. A
	// failed send below leaves that record behind; see WithLoginHook.
	if s.loginHook != nil {
		info := LoginInfo{
			TargetIQN:    iqn,
			InitiatorIQN: req.Pairs[iscsi.KeyInitiatorName],
			AttachedVM:   req.Pairs[iscsi.KeyAttachedVM],
			RemoteAddr:   conn.RemoteAddr(),
		}
		if v := req.Pairs[iscsi.KeySourcePort]; v != "" {
			if port, err := strconv.Atoi(v); err == nil {
				info.SourcePort = port
			}
		}
		s.loginHook(info)
	}
	resp := &iscsi.LoginResponse{
		Transit:     true,
		CSG:         iscsi.StageOperational,
		NSG:         iscsi.StageFullFeature,
		ISID:        req.ISID,
		TSIH:        ss.tsih,
		ITT:         req.ITT,
		StatSN:      1,
		ExpCmdSN:    req.CmdSN + 1,
		MaxCmdSN:    req.CmdSN + 65,
		StatusClass: iscsi.LoginStatusSuccess,
		Pairs:       params.Pairs(),
	}
	if _, err := resp.Encode().WriteTo(conn); err != nil {
		ss.detach(sc)
		return nil, fmt.Errorf("send login response: %w", err)
	}
	s.obsReg.Counter("iscsi.logins").Inc()
	return sc, nil
}

// attach adds a connection to the session, enforcing the negotiated
// MaxConnections bound and CID uniqueness.
func (ss *session) attach(conn net.Conn, cid uint16) (*sessConn, error) {
	ss.connMu.Lock()
	defer ss.connMu.Unlock()
	if ss.ended {
		return nil, errors.New("target: session ended")
	}
	if len(ss.conns) >= ss.params.EffectiveMaxConnections() {
		return nil, fmt.Errorf("target: session at MaxConnections %d", ss.params.EffectiveMaxConnections())
	}
	if _, dup := ss.conns[cid]; dup {
		return nil, fmt.Errorf("target: CID %d already in session", cid)
	}
	sc := &sessConn{ss: ss, conn: conn, cid: cid}
	sc.statSN.Store(1)
	ss.conns[cid] = sc
	return sc, nil
}

// detach removes a connection; the last connection out tears the session
// down (task abort, device close, registry removal).
func (ss *session) detach(sc *sessConn) {
	ss.connMu.Lock()
	delete(ss.conns, sc.cid)
	last := len(ss.conns) == 0 && !ss.ended
	if last {
		ss.ended = true
	}
	ss.connMu.Unlock()
	if !last {
		return
	}
	ss.srv.dropSession(ss)
	close(ss.done)
	ss.cmdWG.Wait()
	if ss.ownDev {
		if err := ss.dev.Close(); err != nil {
			ss.srv.logf("target: session %q: close device: %v", ss.iqn, err)
		}
	}
}

// abort closes every connection of the session (reinstatement); the per-
// connection serve goroutines then detach and the last one cleans up.
func (ss *session) abort() {
	ss.connMu.Lock()
	conns := make([]*sessConn, 0, len(ss.conns))
	for _, sc := range ss.conns {
		conns = append(conns, sc)
	}
	ss.connMu.Unlock()
	for _, sc := range conns {
		_ = sc.conn.Close()
	}
}

// run is the full-feature phase loop for one connection. It returns when the
// connection drops, the initiator logs out, or the server closes.
func (sc *sessConn) run() {
	ss := sc.ss
	pr := iscsi.NewPDUReader(sc.conn)
	defer pr.Close()
	var cmd iscsi.SCSICommand // parse target, copied into the command's own state
	for {
		// pdu is the reader's and lasts until the next ReadPDU: every case
		// consumes it here, in the loop.
		pdu, err := pr.ReadPDU()
		if err != nil {
			return
		}
		switch pdu.Op() {
		case iscsi.OpSCSICommand:
			if err := iscsi.ParseSCSICommandInto(&cmd, pdu); err != nil {
				return
			}
			ss.noteCmdSN(cmd.CmdSN)
			sc.startCommand(&cmd, pdu, pr.Buffered() == 0)
		case iscsi.OpSCSIDataOut:
			dout, err := iscsi.ParseDataOut(pdu)
			if err != nil {
				return
			}
			ss.handleDataOut(dout)
			pdu.Release()
		case iscsi.OpNopOut:
			nop, err := iscsi.ParseNopOut(pdu)
			if err != nil {
				return
			}
			pdu.Release()
			ss.noteCmdSN(nop.CmdSN)
			in := iscsi.NopIn{
				ITT:      nop.ITT,
				TTT:      0xFFFFFFFF,
				StatSN:   sc.statSN.Load(),
				ExpCmdSN: ss.expCmdSN(),
				MaxCmdSN: ss.maxCmdSN(),
			}
			sc.sendMu.Lock()
			_, _ = in.EncodeInto(&sc.wirePDU).WriteTo(sc.conn)
			sc.sendMu.Unlock()
		case iscsi.OpTextReq:
			err := sc.handleText(pdu)
			pdu.Release()
			if err != nil {
				return
			}
		case iscsi.OpLogoutReq:
			req, err := iscsi.ParseLogoutRequest(pdu)
			if err != nil {
				return
			}
			ss.noteCmdSN(req.CmdSN)
			// Let in-flight commands complete before acknowledging.
			ss.cmdWG.Wait()
			_ = sc.send((&iscsi.LogoutResponse{
				ITT:      req.ITT,
				StatSN:   sc.statSN.Add(1),
				ExpCmdSN: ss.expCmdSN(),
				MaxCmdSN: ss.maxCmdSN(),
			}).Encode())
			return
		default:
			ss.srv.logf("target: session %q: unsupported PDU %v", ss.iqn, pdu.Op())
			_ = sc.send((&iscsi.Reject{
				Reason: iscsi.RejectCommandNotSupported,
				StatSN: sc.statSN.Load(),
				Header: append([]byte(nil), pdu.BHS[:]...),
			}).Encode())
			return
		}
	}
}

func (ss *session) noteCmdSN(sn uint32) {
	for {
		cur := ss.lastCmdSN.Load()
		if !iscsi.SNAfter(sn, cur) || ss.lastCmdSN.CompareAndSwap(cur, sn) {
			return
		}
	}
}

func (ss *session) expCmdSN() uint32 { return ss.lastCmdSN.Load() + 1 }
func (ss *session) maxCmdSN() uint32 { return ss.lastCmdSN.Load() + 65 }

// send serializes one PDU to the connection under the connection send lock.
// Typed messages on the command path do not come through here: they encode
// into the connection's reusable wirePDU under sendMu, by a direct call on
// the concrete type, so the message struct stays on its sender's stack (an
// interface-typed argument would move it to the heap) and framing allocates
// nothing.
func (sc *sessConn) send(p *iscsi.PDU) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	_, err := p.WriteTo(sc.conn)
	return err
}

// startCommand dispatches a SCSI command. On servers opted into inline
// execution: when nothing else is in flight, no further input is queued on
// this connection, and the command is a read or fully-immediate write, it
// runs inline in the read loop — the goroutine hand-off (two scheduler
// wakeups) dominates small-I/O latency on pipe fabrics. Commands that need
// R2Ts, control commands, and pipelined arrivals get their own goroutine so
// the loop stays free to deliver Data-Out and serve the rest of the queue.
func (sc *sessConn) startCommand(cmd *iscsi.SCSICommand, pdu *iscsi.PDU, quiet bool) {
	ss := sc.ss
	solo := ss.srv.inlineExec && quiet && ss.inflight.Load() == 0 &&
		(cmd.Read || (cmd.Write && len(cmd.Data) >= int(cmd.ExpectedDataTransferLength)))
	c := &sc.inline
	if !solo {
		c = new(command)
	}
	c.cmd = *cmd
	_, c.imm = pdu.TakeData() // c.cmd.Data aliases it
	ss.inflight.Add(1)
	if solo {
		sc.runCommand(c)
		ss.inflight.Add(-1)
		return
	}
	ss.cmdWG.Add(1)
	go func() {
		defer ss.cmdWG.Done()
		defer ss.inflight.Add(-1)
		sc.runCommand(c)
	}()
}

// runCommand executes one command end to end: data solicitation for
// writes, device execution, Data-In or response with status.
func (sc *sessConn) runCommand(c *command) {
	ss := sc.ss
	cmd := &c.cmd
	defer c.imm.Release()
	var cdb scsi.CDB
	if err := scsi.DecodeInto(&cdb, cmd.CDB[:]); err != nil {
		var unsup *scsi.UnsupportedOpError
		if errors.As(err, &unsup) {
			sc.sendResponse(cmd.ITT, scsi.IllegalRequest(scsi.ASCInvalidOpcode))
		} else {
			sc.sendResponse(cmd.ITT, scsi.IllegalRequest(scsi.ASCInvalidFieldInCDB))
		}
		return
	}

	// The command's trace context (if any) travels out of band on the
	// connection, keyed by task tag. Binding it to this goroutine links
	// every downstream span — the stage span below, a relay's service
	// device stack, the onward forward session — to the upstream command.
	if tbl := obs.CarrierOf(sc.conn); tbl != nil {
		if tsc, ok := tbl.Take(cmd.ITT); ok {
			prev, had := obs.Bind(tsc)
			defer obs.Restore(prev, had)
		}
	}

	sp := ss.srv.obsReg.StartTraced(ss.srv.obsStage, strings.TrimPrefix(opSuffix(&cdb), "."), int(cmd.ExpectedDataTransferLength))
	defer sp.End()

	var writeBuf []byte
	if cmd.Write {
		var sense *scsi.Sense
		var tr *transfer
		var ended bool
		writeBuf, tr, sense, ended = sc.collectWriteData(cmd)
		defer tr.release()
		if ended {
			return
		}
		if sense != nil {
			sc.sendResponse(cmd.ITT, sense)
			return
		}
	}

	data, pooled, sense := ss.execute(&cdb, writeBuf)
	defer pooled.Release()
	if sense != nil {
		sc.sendResponse(cmd.ITT, sense)
		return
	}
	if cmd.Read && len(data) > 0 {
		sc.sendDataIn(cmd.ITT, data)
		return
	}
	sc.sendResponse(cmd.ITT, nil)
}

// opSuffix classifies a CDB for stage-histogram naming.
func opSuffix(cdb *scsi.CDB) string {
	switch {
	case cdb.IsWrite():
		return ".write"
	case cdb.Op == scsi.OpRead10 || cdb.Op == scsi.OpRead16:
		return ".read"
	default:
		return ".ctl"
	}
}

// collectWriteData assembles the command's full data transfer: immediate
// data from the command PDU plus R2T-solicited bursts. When the command
// arrived fully immediate there is nothing to stage: the immediate segment
// the command already owns flows through to the device write untouched, and
// no transfer is returned. Otherwise the caller must call release on the
// returned transfer once the device write completes. The final result
// reports that the session was torn down mid-transfer, leaving no one to
// answer; a zero-length write returns no data and is answered as usual.
func (sc *sessConn) collectWriteData(cmd *iscsi.SCSICommand) ([]byte, *transfer, *scsi.Sense, bool) {
	ss := sc.ss
	total := int(cmd.ExpectedDataTransferLength)
	if total > maxTransfer {
		return nil, nil, scsi.IllegalRequest(scsi.ASCInvalidFieldInCDB), false
	}
	if len(cmd.Data) >= total {
		return cmd.Data[:total], nil, nil, false
	}
	// Zeroed: a peer that skips a solicited segment must not leak stale
	// pool bytes into the device write (make([]byte) was implicitly zero).
	pbuf := bufpool.GetZeroed(total)
	tr := &transfer{buf: pbuf.B, pbuf: pbuf, burst: make(chan struct{}, 2)}
	received := copy(tr.buf, cmd.Data)

	ss.xferMu.Lock()
	ss.xfers[cmd.ITT] = tr
	ss.xferMu.Unlock()
	defer func() {
		ss.xferMu.Lock()
		delete(ss.xfers, cmd.ITT)
		ss.xferMu.Unlock()
	}()

	maxBurst := ss.params.MaxBurstLength
	if maxBurst <= 0 {
		maxBurst = 256 * 1024
	}
	var r2tsn uint32
	for received < total {
		desired := total - received
		if desired > maxBurst {
			desired = maxBurst
		}
		r2t := iscsi.R2T{
			ITT:           cmd.ITT,
			TTT:           cmd.ITT,
			StatSN:        sc.statSN.Load(),
			ExpCmdSN:      ss.expCmdSN(),
			MaxCmdSN:      ss.maxCmdSN(),
			R2TSN:         r2tsn,
			BufferOffset:  uint32(received),
			DesiredLength: uint32(desired),
		}
		sc.sendMu.Lock()
		_, err := r2t.EncodeInto(&sc.wirePDU).WriteTo(sc.conn)
		sc.sendMu.Unlock()
		if err != nil {
			return nil, tr, nil, true
		}
		select {
		case <-tr.burst:
		case <-ss.done:
			return nil, tr, nil, true
		}
		received += desired
		r2tsn++
	}
	return tr.buf, tr, nil, false
}

// handleDataOut copies a solicited data segment into its transfer buffer
// and signals burst completion on the Final PDU.
func (ss *session) handleDataOut(d *iscsi.DataOut) {
	ss.xferMu.Lock()
	tr := ss.xfers[d.ITT]
	ss.xferMu.Unlock()
	if tr == nil {
		return
	}
	tr.mu.Lock()
	off := int(d.BufferOffset)
	if off >= 0 && off+len(d.Data) <= len(tr.buf) {
		copy(tr.buf[off:], d.Data)
	}
	tr.mu.Unlock()
	if d.Final {
		select {
		case tr.burst <- struct{}{}:
		default:
		}
	}
}

// execute runs the decoded CDB against the session device. It returns
// Data-In payload for read-direction commands, or a sense error. When the
// payload is pooled (the block-read fast path) the second return carries the
// buffer for the caller to release after the Data-In sequence is sent.
func (ss *session) execute(cdb *scsi.CDB, writeBuf []byte) ([]byte, *bufpool.Buf, *scsi.Sense) {
	dev := ss.dev
	bs := dev.BlockSize()
	switch cdb.Op {
	case scsi.OpRead10, scsi.OpRead16:
		if cdb.LBA+uint64(cdb.Blocks) > dev.Blocks() {
			return nil, nil, scsi.IllegalRequest(scsi.ASCLBAOutOfRange)
		}
		pooled := bufpool.Get(int(cdb.Blocks) * bs)
		if len(pooled.B) > 0 {
			if err := dev.ReadAt(pooled.B, cdb.LBA); err != nil {
				pooled.Release()
				return nil, nil, senseFor(err, false, cdb.LBA)
			}
		}
		return pooled.B, pooled, nil
	case scsi.OpWrite10, scsi.OpWrite16:
		if cdb.LBA+uint64(cdb.Blocks) > dev.Blocks() {
			return nil, nil, scsi.IllegalRequest(scsi.ASCLBAOutOfRange)
		}
		if int(cdb.Blocks)*bs != len(writeBuf) {
			return nil, nil, scsi.IllegalRequest(scsi.ASCInvalidFieldInCDB)
		}
		if len(writeBuf) > 0 {
			if err := dev.WriteAt(writeBuf, cdb.LBA); err != nil {
				return nil, nil, senseFor(err, true, cdb.LBA)
			}
		}
		return nil, nil, nil
	case scsi.OpReadCapacity10:
		c := scsi.Capacity{LastLBA: dev.Blocks() - 1, BlockSize: uint32(bs)}
		return c.EncodeCapacity10(), nil, nil
	case scsi.OpReadCapacity16:
		c := scsi.Capacity{LastLBA: dev.Blocks() - 1, BlockSize: uint32(bs)}
		return clampAlloc(c.EncodeCapacity16(), cdb.AllocationLength), nil, nil
	case scsi.OpInquiry:
		return clampAlloc(ss.srv.inquiry.Encode(), cdb.AllocationLength), nil, nil
	case scsi.OpTestUnitReady:
		return nil, nil, nil
	case scsi.OpSyncCache10:
		if err := dev.Flush(); err != nil {
			return nil, nil, senseFor(err, true, uint64(0))
		}
		return nil, nil, nil
	default:
		return nil, nil, scsi.IllegalRequest(scsi.ASCInvalidOpcode)
	}
}

// clampAlloc truncates response data to the CDB's allocation length.
func clampAlloc(data []byte, alloc uint32) []byte {
	if alloc > 0 && int(alloc) < len(data) {
		return data[:alloc]
	}
	return data
}

// senseFor maps a device error to sense data, passing through sense the
// device itself raised. Overload-classed errors map to the senseBusy marker
// (SCSI BUSY on the wire) rather than a medium error: the data is intact,
// the device just wants the initiator to retry later.
func senseFor(err error, write bool, lba uint64) *scsi.Sense {
	var sense *scsi.Sense
	if errors.As(err, &sense) {
		return sense
	}
	if xerr.Classify(err) == xerr.Overload {
		return senseBusy
	}
	if write {
		return scsi.MediumError(scsi.ASCWriteError, uint32(lba))
	}
	return scsi.MediumError(scsi.ASCUnrecoveredReadError, uint32(lba))
}

// sendDataIn streams read data in negotiated-size segments, collapsing
// status into the final Data-In (phase collapse). Multi-segment sequences
// are encoded back-to-back and leave in a single vectored write instead of
// one wire rendezvous per segment.
func (sc *sessConn) sendDataIn(itt uint32, data []byte) {
	ss := sc.ss
	maxSeg := ss.params.MaxRecvDataSegmentLength
	if maxSeg <= 0 {
		maxSeg = 8192
	}
	nseg := (len(data) + maxSeg - 1) / maxSeg
	din := iscsi.DataIn{ITT: itt, TTT: 0xFFFFFFFF}
	if nseg == 1 {
		din.Final = true
		din.ExpCmdSN = ss.expCmdSN()
		din.MaxCmdSN = ss.maxCmdSN()
		din.Data = data
		din.StatusPresent = true
		din.Status = byte(scsi.StatusGood)
		din.StatSN = sc.statSN.Add(1)
		sc.sendMu.Lock()
		_, _ = din.EncodeInto(&sc.wirePDU).WriteTo(sc.conn)
		sc.sendMu.Unlock()
		return
	}
	pdus := make([]iscsi.PDU, nseg)
	for i, off := 0, 0; off < len(data); i++ {
		end := off + maxSeg
		if end > len(data) {
			end = len(data)
		}
		last := end == len(data)
		din.Final = last
		din.ExpCmdSN = ss.expCmdSN()
		din.MaxCmdSN = ss.maxCmdSN()
		din.BufferOffset = uint32(off)
		din.Data = data[off:end]
		if last {
			din.StatusPresent = true
			din.Status = byte(scsi.StatusGood)
			din.StatSN = sc.statSN.Add(1)
		}
		din.EncodeInto(&pdus[i])
		din.DataSN++
		off = end
	}
	sc.sendMu.Lock()
	_, err := iscsi.WritePDUs(sc.conn, pdus)
	sc.sendMu.Unlock()
	if err != nil {
		return
	}
}

// sendResponse sends a SCSI Response carrying GOOD status, BUSY (for the
// senseBusy overload marker), or CHECK CONDITION with the given sense.
func (sc *sessConn) sendResponse(itt uint32, sense *scsi.Sense) {
	ss := sc.ss
	resp := iscsi.SCSIResponse{
		ITT:      itt,
		Response: iscsi.RespCompleted,
		Status:   byte(scsi.StatusGood),
		StatSN:   sc.statSN.Add(1),
		ExpCmdSN: ss.expCmdSN(),
		MaxCmdSN: ss.maxCmdSN(),
	}
	if sense == senseBusy {
		resp.Status = byte(scsi.StatusBusy)
	} else if sense != nil {
		resp.Status = byte(scsi.StatusCheckCondition)
		resp.Sense = sense.Encode()
	}
	sc.sendMu.Lock()
	_, err := resp.EncodeInto(&sc.wirePDU).WriteTo(sc.conn)
	sc.sendMu.Unlock()
	if err != nil {
		ss.srv.logf("target: session %q: send response: %v", ss.iqn, err)
	}
}

// handleText answers a SendTargets discovery request with the exported
// target names.
func (sc *sessConn) handleText(req *iscsi.PDU) error {
	ss := sc.ss
	names := ss.srv.targetNames()
	sort.Strings(names)
	var data []byte
	for _, iqn := range names {
		data = append(data, "TargetName="...)
		data = append(data, iqn...)
		data = append(data, 0)
	}
	resp := &iscsi.PDU{}
	resp.SetOp(iscsi.OpTextResp)
	resp.BHS[1] = 0x80 // final
	resp.SetITT(req.ITT())
	binary.BigEndian.PutUint32(resp.BHS[20:24], 0xFFFFFFFF) // TTT
	binary.BigEndian.PutUint32(resp.BHS[24:28], sc.statSN.Load())
	binary.BigEndian.PutUint32(resp.BHS[28:32], ss.expCmdSN())
	binary.BigEndian.PutUint32(resp.BHS[32:36], ss.maxCmdSN())
	resp.Data = data
	resp.BHS[5] = byte(len(data) >> 16)
	resp.BHS[6] = byte(len(data) >> 8)
	resp.BHS[7] = byte(len(data))
	return sc.send(resp)
}

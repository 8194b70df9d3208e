// Package initiator implements the iSCSI initiator used by tenant VMs (and
// by the active-relay middle-box's pseudo-client): login with the StorM
// source-port exposure, tag-based multiplexing of outstanding commands,
// immediate data, R2T-solicited Data-Out sequences, and multi-connection
// sessions (MC/S) for parallel wire legs.
package initiator

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/iscsi"
	"repro/internal/obs"
	"repro/internal/scsi"
	"repro/internal/xerr"
)

// ErrTargetBusy reports a command completed with SCSI BUSY status: the
// target (or a relay in front of it) is shedding load and wants the command
// retried after backoff. Classed xerr.Overload, so xerr.Retryable holds.
var ErrTargetBusy = xerr.New(xerr.Overload, "initiator: target busy")

// Errors returned by session operations.
var (
	ErrSessionClosed = errors.New("initiator: session closed")
	ErrLoginFailed   = errors.New("initiator: login failed")
)

// transientErr marks a connection-level failure the session may heal from by
// redistributing onto its surviving MC/S connections: the command that
// observed it is safe to reissue. Protocol violations and user-initiated
// closes are never wrapped, so they stay terminal.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return "initiator: connection failure: " + e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// maxCmdAttempts bounds how many times one command is reissued across
// MC/S connection losses, so a target that keeps accepting secondary logins
// and then dropping them cannot trap a caller forever.
const maxCmdAttempts = 8

// maxConns caps the MC/S connection count per session.
const maxConns = 8

// The budget for restoring a lost MC/S secondary connection: reattachTries
// logins, the n-th after a jittered backoff in [d/2, d) with
// d = min(2ms·2ⁿ, 100ms).
const (
	reattachTries       = 4
	reattachBackoffBase = 2 * time.Millisecond
	reattachBackoffCap  = 100 * time.Millisecond
)

// Config describes the session to establish.
type Config struct {
	// InitiatorIQN names this initiator.
	InitiatorIQN string
	// TargetIQN names the volume's target.
	TargetIQN string
	// AttachedVM optionally carries the owning VM's name for StorM's
	// connection attribution.
	AttachedVM string
	// Params are the desired operational parameters (DefaultParams when
	// zero).
	Params iscsi.Params
	// QueueDepth bounds locally outstanding commands (default 32,
	// Open-iSCSI's node.session.queue_depth).
	QueueDepth int
	// Conns asks for a multi-connection session (MC/S) of this many
	// transports (default 1, capped at 8). Commands round-robin across the
	// connections with per-command allegiance while CmdSN stays on one
	// session-wide window. Requires DialConn for the extra transports; the
	// effective count is clamped by the negotiated MaxConnections.
	Conns int
	// DialConn dials one additional MC/S transport to the same portal.
	// Also used to re-establish a failed secondary connection. The leading
	// connection is never redialed: its loss ends the session.
	DialConn func() (net.Conn, error)
	// Obs optionally records per-command latency spans into the registry
	// under "stage.<Stage>.read" / "stage.<Stage>.write". Nil disables
	// tracing (no histogram work on the hot path).
	Obs *obs.Registry
	// Stage labels this session's spans (obs.StageInitiator when empty);
	// a relay's pseudo-client session uses its relay.forward stage.
	Stage string
}

// pendingCmd tracks one outstanding command. The done channel is buffered
// with capacity 1 and receives exactly one completion signal (the completer
// deletes the command from the pending map under the session mutex before
// signalling, so no command can be signalled twice). sc is the connection
// the command was issued on — its allegiance: R2Ts and completions arrive
// there, and a failure of that connection fails exactly its commands.
type pendingCmd struct {
	buf    []byte // Data-In assembly for reads
	filled int
	r2t    chan *iscsi.R2T
	done   chan struct{}
	cmd    iscsi.SCSICommand // per-command frame scratch, reused via the pool
	sc     *sconn

	status byte
	sense  *scsi.Sense
	err    error
}

// pcPool recycles pendingCmds (with their channels) across commands, so
// steady-state command issue allocates neither tracking state nor channels.
var pcPool = sync.Pool{New: func() any {
	return &pendingCmd{done: make(chan struct{}, 1), r2t: make(chan *iscsi.R2T, 4)}
}}

// r2tPool recycles the R2T structs the read loop hands to waiting writers.
var r2tPool = sync.Pool{New: func() any { return new(iscsi.R2T) }}

func getPending() *pendingCmd {
	p := pcPool.Get().(*pendingCmd)
	p.buf = nil
	p.filled = 0
	p.status = 0
	p.sense = nil
	p.err = nil
	return p
}

// putPending returns p to the pool. Only call after the command's single
// completion signal has been consumed (or before it was ever registered):
// a command abandoned mid-flight may still be signalled by a concurrent
// connFailed, and pooling it then would leak that signal into the next user.
func putPending(p *pendingCmd) {
	p.buf = nil      // don't pin the caller's buffer while pooled
	p.cmd.Data = nil // likewise for the write payload
	p.sc = nil
	for {
		select {
		case r := <-p.r2t: // unconsumed R2Ts from an aborted write
			r2tPool.Put(r)
		default:
			pcPool.Put(p)
			return
		}
	}
}

// sconn is one transport of the session. conns[0] is the leading connection;
// the rest are MC/S secondaries. Each has its own send lock, wire scratch,
// read loop, and StatSN expectation — only the CmdSN window is shared.
type sconn struct {
	conn net.Conn
	cid  uint16

	writeMu sync.Mutex
	wirePDU iscsi.PDU // reusable encode target for outgoing PDUs, guarded by writeMu

	done chan struct{} // closed when this connection's read loop exits

	// dead and expStatSN are guarded by the session mutex.
	dead      bool
	expStatSN uint32
}

// Session is a logged-in iSCSI session. All methods are safe for concurrent
// use; multiple application threads share one session, as Fio threads share
// a volume connection in the paper's setup.
type Session struct {
	cfg  Config
	isid [6]byte

	mu        sync.Mutex
	conns     []*sconn // conns[0] is the leading connection
	rr        uint32   // round-robin cursor for connection allegiance
	tsih      uint16
	params    iscsi.Params
	itt       uint32
	cmdSN     uint32
	pending   map[uint32]*pendingCmd
	closedErr error

	backoff *faults.Backoff
	sem     chan struct{}

	stage string // obs stage name for command spans ("initiator", "relay.<x>.forward")
}

// isidSeq distinguishes concurrent sessions from the same initiator: RFC
// 7143 keys a session by (InitiatorName, ISID, TargetName), so two live
// sessions must not share an ISID or the second login reinstates (kills)
// the first.
var isidSeq atomic.Uint32

func newISID() [6]byte {
	n := isidSeq.Add(1)
	return [6]byte{0x80, 0, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// doLogin runs the login handshake on conn: a leading login when tsih is
// zero, an MC/S join of connection cid otherwise. It returns the negotiated
// parameters, the target's initial StatSN, and the session's TSIH.
func doLogin(conn net.Conn, cfg Config, isid [6]byte, tsih uint16, cid uint16) (iscsi.Params, uint32, uint16, error) {
	pairs := cfg.Params.Pairs()
	pairs[iscsi.KeyInitiatorName] = cfg.InitiatorIQN
	pairs[iscsi.KeyTargetName] = cfg.TargetIQN
	pairs[iscsi.KeySessionType] = "Normal"
	if port := localPort(conn); port != 0 {
		pairs[iscsi.KeySourcePort] = strconv.Itoa(port)
	}
	if cfg.AttachedVM != "" {
		pairs[iscsi.KeyAttachedVM] = cfg.AttachedVM
	}
	req := &iscsi.LoginRequest{
		Transit: true,
		CSG:     iscsi.StageOperational,
		NSG:     iscsi.StageFullFeature,
		ISID:    isid,
		TSIH:    tsih,
		CID:     cid,
		ITT:     1,
		CmdSN:   1,
		Pairs:   pairs,
	}
	if _, err := req.Encode().WriteTo(conn); err != nil {
		return iscsi.Params{}, 0, 0, fmt.Errorf("initiator: send login: %w", err)
	}
	pdu, err := iscsi.ReadPDU(conn)
	if err != nil {
		return iscsi.Params{}, 0, 0, fmt.Errorf("initiator: read login response: %w", err)
	}
	resp, err := iscsi.ParseLoginResponse(pdu)
	if err != nil {
		return iscsi.Params{}, 0, 0, err
	}
	if resp.StatusClass != iscsi.LoginStatusSuccess {
		err := fmt.Errorf("%w: status class 0x%02x detail 0x%02x",
			ErrLoginFailed, resp.StatusClass, resp.StatusDetail)
		// The wire status carries the target's error class: TargetErr means
		// "retry later" (transient or overload), while TargetRemoved under
		// InitiatorErr marks the refusal terminal — the target will never
		// accept this login, so logging in again is wasted budget.
		switch {
		case resp.StatusClass == iscsi.LoginStatusTargetErr:
			err = xerr.Wrap(xerr.Transient, err)
		case resp.StatusClass == iscsi.LoginStatusInitiatorErr && resp.StatusDetail == iscsi.LoginDetailTargetRemoved:
			err = xerr.Wrap(xerr.Terminal, err)
		}
		return iscsi.Params{}, 0, 0, err
	}
	params, err := cfg.Params.Negotiate(resp.Pairs)
	if err != nil {
		return iscsi.Params{}, 0, 0, err
	}
	return params, resp.StatSN, resp.TSIH, nil
}

// Login establishes a session over conn. The local TCP source port is
// exposed in the login text (the paper's modified Login Session code) so the
// platform can attribute the connection. With Conns > 1 and a DialConn hook,
// the session adds MC/S connections up to the negotiated MaxConnections.
func Login(conn net.Conn, cfg Config) (*Session, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.Params == (iscsi.Params{}) {
		cfg.Params = iscsi.DefaultParams()
	}
	if cfg.Conns > maxConns {
		cfg.Conns = maxConns
	}
	if cfg.Conns > 1 && cfg.Params.EffectiveMaxConnections() < cfg.Conns {
		// Offer the width we want; negotiation takes the minimum.
		cfg.Params.MaxConnections = cfg.Conns
	}
	isid := newISID()
	params, statSN, tsih, err := doLogin(conn, cfg, isid, 0, 0)
	if err != nil {
		return nil, err
	}
	want := cfg.Conns
	if want < 1 {
		want = 1
	}
	if want > params.EffectiveMaxConnections() {
		want = params.EffectiveMaxConnections()
	}
	if cfg.DialConn == nil {
		want = 1
	}
	lead := &sconn{conn: conn, cid: 0, done: make(chan struct{}), expStatSN: statSN}
	s := &Session{
		cfg:     cfg,
		isid:    isid,
		conns:   []*sconn{lead},
		tsih:    tsih,
		params:  params,
		itt:     1,
		cmdSN:   2,
		pending: make(map[uint32]*pendingCmd),
		backoff: faults.NewBackoff(reattachBackoffBase, reattachBackoffCap, 0),
		sem:     make(chan struct{}, cfg.QueueDepth),
	}
	s.stage = cfg.Stage
	if s.stage == "" {
		s.stage = obs.StageInitiator
	}
	go s.readLoop(lead)
	// Best-effort MC/S widening: a failed secondary login degrades the
	// session to fewer connections rather than failing it.
	for cid := uint16(1); int(cid) < want; cid++ {
		_ = s.addConn(cid)
	}
	return s, nil
}

// addConn dials, joins, and installs one MC/S secondary connection, unless
// the session closed while the dial was in flight.
func (s *Session) addConn(cid uint16) error {
	conn, err := s.cfg.DialConn()
	if err != nil {
		return err
	}
	s.mu.Lock()
	tsih := s.tsih
	closed := s.closedErr != nil
	s.mu.Unlock()
	if closed {
		conn.Close()
		return ErrSessionClosed
	}
	_, statSN, _, err := doLogin(conn, s.cfg, s.isid, tsih, cid)
	if err != nil {
		conn.Close()
		return err
	}
	sc := &sconn{conn: conn, cid: cid, done: make(chan struct{}), expStatSN: statSN}
	s.mu.Lock()
	if s.closedErr != nil {
		s.mu.Unlock()
		conn.Close()
		return ErrSessionClosed
	}
	replaced := false
	for i, old := range s.conns {
		if old.cid == cid {
			s.conns[i] = sc
			replaced = true
			break
		}
	}
	if !replaced {
		s.conns = append(s.conns, sc)
	}
	s.mu.Unlock()
	go s.readLoop(sc)
	return nil
}

// reattach tries to restore a failed secondary connection in the background,
// reattachTries times with backoff. It gives up early when the session
// closes or the target refuses the login terminally (a draining relay): no
// later attempt could succeed.
func (s *Session) reattach(cid uint16) {
	for attempt := 0; attempt < reattachTries; attempt++ {
		if attempt > 0 {
			time.Sleep(s.backoff.Delay(attempt - 1))
		}
		err := s.addConn(cid)
		if err == nil || errors.Is(err, ErrSessionClosed) || xerr.IsTerminal(err) {
			return
		}
	}
}

// startCmdSpan opens the per-command stage span. With tracing enabled on
// the session's registry this also assigns (or continues) the command's
// trace: a fresh trace ID when the calling goroutine is unbound (the VM
// edge of the chain), a child span when a relay's service leg is driving
// this session as its downstream forward. Returns the zero span when the
// session has no registry.
func (s *Session) startCmdSpan(dir string, bytes int) obs.Span {
	return s.cfg.Obs.StartTraced(s.stage, dir, bytes)
}

// putTrace hands the command's span context to its connection's out-of-band
// trace carrier (keyed by task tag) so the next station can parent its spans
// under ours. No-op on untraced commands or transports without a carrier.
func (s *Session) putTrace(sc *sconn, itt uint32, spanCtx obs.SpanContext) {
	if !spanCtx.Valid() {
		return
	}
	if tbl := obs.CarrierOf(sc.conn); tbl != nil {
		tbl.Put(itt, spanCtx)
	}
}

// Params returns the negotiated operational parameters.
func (s *Session) Params() iscsi.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.params
}

// Conn returns the current leading connection.
func (s *Session) Conn() net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[0].conn
}

// NumConns reports how many healthy connections the session currently has.
func (s *Session) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sc := range s.conns {
		if !sc.dead {
			n++
		}
	}
	return n
}

// localPort extracts the TCP source port from the connection, if available.
func localPort(conn net.Conn) int {
	addr := conn.LocalAddr()
	if addr == nil {
		return 0
	}
	_, portStr, err := net.SplitHostPort(addr.String())
	if err != nil {
		return 0
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return 0
	}
	return port
}

// readLoop demultiplexes target PDUs to their outstanding commands. The
// Data-In and Response parse targets live across iterations — each is fully
// consumed before the next PDU, so the loop itself allocates nothing. sc is
// this loop's connection: a reattach starts a fresh loop on a fresh sconn,
// and a stale loop's exit must not disturb the new connection.
func (s *Session) readLoop(sc *sconn) {
	defer close(sc.done)
	pr := iscsi.NewPDUReader(sc.conn)
	defer pr.Close()
	var (
		din  iscsi.DataIn
		resp iscsi.SCSIResponse
	)
	for {
		pdu, err := pr.ReadPDU()
		if err != nil {
			s.connFailed(sc, err, true)
			return
		}
		switch pdu.Op() {
		case iscsi.OpSCSIDataIn:
			if err := iscsi.ParseDataInInto(&din, pdu); err != nil {
				s.connFailed(sc, err, false)
				return
			}
			if err := s.handleDataIn(sc, &din); err != nil {
				s.connFailed(sc, err, false)
				return
			}
		case iscsi.OpSCSIResponse:
			if err := iscsi.ParseSCSIResponseInto(&resp, pdu); err != nil {
				s.connFailed(sc, err, false)
				return
			}
			s.handleResponse(sc, &resp)
		case iscsi.OpR2T:
			r2t := r2tPool.Get().(*iscsi.R2T)
			if err := iscsi.ParseR2TInto(r2t, pdu); err != nil {
				r2tPool.Put(r2t)
				s.connFailed(sc, err, false)
				return
			}
			s.mu.Lock()
			p := s.pending[r2t.ITT]
			s.mu.Unlock()
			if p != nil && p.r2t != nil {
				p.r2t <- r2t
			} else {
				r2tPool.Put(r2t)
			}
		case iscsi.OpLogoutResp:
			s.connFailed(sc, ErrSessionClosed, false)
			return
		case iscsi.OpReject:
			rej, _ := iscsi.ParseReject(pdu)
			s.connFailed(sc, fmt.Errorf("initiator: target rejected PDU (reason 0x%02x)", rej.Reason), false)
			return
		default:
			s.connFailed(sc, fmt.Errorf("initiator: unexpected PDU %v", pdu.Op()), false)
			return
		}
		// Every case above consumes the data segment synchronously (copying
		// into the pending command's buffer or decoding into typed fields),
		// so the pooled segment can be recycled here.
		pdu.Release()
	}
}

// handleDataIn places one Data-In segment. A segment that lands outside the
// command buffer, or that would deliver more bytes than the buffer holds, is
// a protocol violation: returning the error fails the command and tears down
// the session rather than completing the read GOOD with silently short data.
func (s *Session) handleDataIn(sc *sconn, din *iscsi.DataIn) error {
	s.mu.Lock()
	p := s.pending[din.ITT]
	if p == nil {
		s.mu.Unlock()
		return nil
	}
	off := int(din.BufferOffset)
	if off+len(din.Data) > len(p.buf) {
		s.mu.Unlock()
		return fmt.Errorf("initiator: Data-In for ITT %d spans [%d,%d) beyond %d-byte buffer",
			din.ITT, off, off+len(din.Data), len(p.buf))
	}
	if p.filled+len(din.Data) > len(p.buf) {
		s.mu.Unlock()
		return fmt.Errorf("initiator: Data-In for ITT %d over-delivers: %d bytes into a %d-byte buffer",
			din.ITT, p.filled+len(din.Data), len(p.buf))
	}
	copy(p.buf[off:], din.Data)
	p.filled += len(din.Data)
	if din.StatusPresent && din.Final {
		p.status = din.Status
		if iscsi.SNAfter(din.StatSN+1, sc.expStatSN) {
			sc.expStatSN = din.StatSN + 1
		}
		delete(s.pending, din.ITT)
		s.mu.Unlock()
		p.done <- struct{}{}
		return nil
	}
	s.mu.Unlock()
	return nil
}

func (s *Session) handleResponse(sc *sconn, resp *iscsi.SCSIResponse) {
	s.mu.Lock()
	p := s.pending[resp.ITT]
	if p == nil {
		s.mu.Unlock()
		return
	}
	p.status = resp.Status
	if len(resp.Sense) > 0 {
		if sense, err := scsi.DecodeSense(resp.Sense); err == nil {
			p.sense = sense
		}
	}
	if iscsi.SNAfter(resp.StatSN+1, sc.expStatSN) {
		sc.expStatSN = resp.StatSN + 1
	}
	delete(s.pending, resp.ITT)
	s.mu.Unlock()
	p.done <- struct{}{}
}

// connFailed reacts to the loss of one connection. A transient loss of a
// secondary fails only the commands with allegiance to it — each with a
// retryable transientErr so its caller reissues on a surviving connection —
// and tries to reattach in the background. Loss of the leading connection
// (or any non-transient failure) ends the session. Calls for an
// already-failed connection are ignored.
func (s *Session) connFailed(sc *sconn, err error, transient bool) {
	s.mu.Lock()
	if sc.dead {
		s.mu.Unlock()
		return
	}
	sc.dead = true
	leading := s.conns[0] == sc

	if !leading && transient && s.closedErr == nil {
		// Secondary loss: redistribute its in-flight commands.
		var failed []*pendingCmd
		for itt, p := range s.pending {
			if p.sc == sc {
				delete(s.pending, itt)
				failed = append(failed, p)
			}
		}
		canReattach := s.cfg.DialConn != nil
		s.mu.Unlock()
		sc.conn.Close()
		for _, p := range failed {
			p.err = &transientErr{err}
			p.done <- struct{}{}
		}
		if canReattach {
			go s.reattach(sc.cid)
		}
		return
	}

	if s.closedErr == nil {
		s.closedErr = err
	}
	failErr := s.closedErr
	// Session-wide: the whole connection set goes down with the leading
	// connection.
	conns := make([]*sconn, 0, len(s.conns))
	for _, c := range s.conns {
		c.dead = true
		conns = append(conns, c)
	}
	pend := s.pending
	s.pending = make(map[uint32]*pendingCmd)
	s.mu.Unlock()
	for _, c := range conns {
		c.conn.Close()
	}
	for _, p := range pend {
		p.err = failErr
		p.done <- struct{}{}
	}
}

// retryTransient reports whether err is a connection failure worth reissuing
// the command for: a surviving MC/S connection to redistribute onto.
func (s *Session) retryTransient(err error) bool {
	var te *transientErr
	return errors.As(err, &te) && s.NumConns() > 0
}

// register allocates a task tag, picks the command's connection (round-robin
// over the healthy set — its allegiance for the command's lifetime), and
// tracks the command. CmdSN stays session-wide so MC/S preserves one command
// ordering window across connections.
func (s *Session) register(p *pendingCmd) (itt, cmdSN, expStatSN uint32, sc *sconn, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedErr != nil {
		return 0, 0, 0, nil, s.closedErr
	}
	n := len(s.conns)
	for i := 0; i < n; i++ {
		c := s.conns[int(s.rr)%n]
		s.rr++
		if !c.dead {
			sc = c
			break
		}
	}
	if sc == nil {
		return 0, 0, 0, nil, &transientErr{errors.New("no healthy connection")}
	}
	s.itt++
	s.cmdSN++
	itt = s.itt
	p.sc = sc
	s.pending[itt] = p
	return itt, s.cmdSN, sc.expStatSN, sc, nil
}

// pduEncoder is a typed message that can encode into a caller-owned PDU.
// Raw *iscsi.PDU values satisfy it too (identity EncodeInto), so cold-path
// admin requests share this path instead of a separate raw-PDU sender.
type pduEncoder interface {
	EncodeInto(*iscsi.PDU) *iscsi.PDU
}

// send serializes m into the connection's reusable wire PDU under its write
// lock, so steady-state command issue allocates nothing for framing. Wire
// errors are wrapped as transient: the connection is presumed dead and the
// command may be reissued on a surviving MC/S connection.
func (s *Session) send(sc *sconn, m pduEncoder) error {
	sc.writeMu.Lock()
	_, err := m.EncodeInto(&sc.wirePDU).WriteTo(sc.conn)
	sc.writeMu.Unlock()
	if err != nil {
		// The writer can notice a dead connection before the read loop
		// does; report it here so the connection leaves the rotation now
		// instead of the caller burning its retry budget against it.
		s.connFailed(sc, err, true)
		return &transientErr{err}
	}
	return nil
}

func (s *Session) unregister(itt uint32) {
	s.mu.Lock()
	delete(s.pending, itt)
	s.mu.Unlock()
}

// Read reads blocks*BlockSize bytes at lba. blockSize is the device block
// size (learned via Capacity). Callers that already own a destination buffer
// should prefer ReadInto, which avoids the per-read allocation.
func (s *Session) Read(lba uint64, blocks uint32, blockSize int) ([]byte, error) {
	dst := make([]byte, int(blocks)*blockSize)
	n, err := s.ReadInto(dst, lba, blocks, blockSize)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// ReadInto reads blocks*blockSize bytes at lba directly into dst, which must
// be at least that long. Data-In segments land in dst as they arrive, so the
// read path performs no per-command allocation or assembly copy. Returns the
// number of bytes the target delivered.
func (s *Session) ReadInto(dst []byte, lba uint64, blocks uint32, blockSize int) (int, error) {
	cdb := scsi.ReadCDB(lba, blocks)
	n := int(blocks) * blockSize
	if len(dst) < n {
		return 0, fmt.Errorf("initiator: destination %d bytes, transfer needs %d", len(dst), n)
	}
	sp := s.startCmdSpan("read", n)
	if spanCtx := sp.Context(); spanCtx.Valid() {
		// Bind the command's context so fabric hop charges on this
		// goroutine (gateway ingress/egress, MB-FWD) join the trace.
		prev, had := obs.Bind(spanCtx)
		defer obs.Restore(prev, had)
	}
	got, err := s.execRead(&cdb, dst[:n], sp.Context())
	if err != nil {
		sp.Abort()
		return 0, err
	}
	sp.End()
	return got, nil
}

// execRead issues a read-direction command whose Data-In sequence fills dst,
// reissuing it on a surviving MC/S connection while failures stay transient.
func (s *Session) execRead(cdb *scsi.CDB, dst []byte, spanCtx obs.SpanContext) (int, error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	var (
		n   int
		err error
	)
	for attempt := 0; attempt < maxCmdAttempts; attempt++ {
		n, err = s.execReadOnce(cdb, dst, spanCtx)
		if err == nil || !s.retryTransient(err) {
			return n, err
		}
	}
	return 0, err
}

// execReadOnce runs one attempt of a read-direction command.
func (s *Session) execReadOnce(cdb *scsi.CDB, dst []byte, spanCtx obs.SpanContext) (int, error) {
	p := getPending()
	p.buf = dst
	p.cmd = iscsi.SCSICommand{
		Final:                      true,
		Read:                       len(dst) > 0,
		ExpectedDataTransferLength: uint32(len(dst)),
	}
	if _, err := cdb.EncodeInto(p.cmd.CDB[:]); err != nil {
		putPending(p)
		return 0, err
	}
	itt, cmdSN, expStatSN, sc, err := s.register(p)
	if err != nil {
		putPending(p)
		return 0, err
	}
	p.cmd.ITT = itt
	p.cmd.CmdSN = cmdSN
	p.cmd.ExpStatSN = expStatSN
	s.putTrace(sc, itt, spanCtx)
	if err := s.send(sc, &p.cmd); err != nil {
		// Not pooled: a concurrent connFailed may still signal this command.
		s.unregister(itt)
		return 0, err
	}
	<-p.done
	filled, status, sense, perr := p.filled, p.status, p.sense, p.err
	putPending(p)
	if perr != nil {
		return 0, perr
	}
	if sense != nil {
		return 0, sense
	}
	if status == byte(scsi.StatusBusy) {
		return 0, ErrTargetBusy
	}
	if status != byte(scsi.StatusGood) {
		return 0, fmt.Errorf("initiator: %v", scsi.Status(status))
	}
	return filled, nil
}

// Write writes data at lba. len(data) must be a multiple of blockSize. The
// command is reissued on a surviving MC/S connection while failures stay
// transient (block writes are idempotent).
func (s *Session) Write(lba uint64, data []byte, blockSize int) error {
	if blockSize <= 0 || len(data)%blockSize != 0 {
		return fmt.Errorf("initiator: write length %d is not a multiple of block size %d", len(data), blockSize)
	}
	cdb := scsi.WriteCDB(lba, uint32(len(data)/blockSize))
	sp := s.startCmdSpan("write", len(data))
	defer sp.End()
	if spanCtx := sp.Context(); spanCtx.Valid() {
		// Bind the command's context so fabric hop charges on this
		// goroutine (gateway ingress/egress, MB-FWD) join the trace.
		prev, had := obs.Bind(spanCtx)
		defer obs.Restore(prev, had)
	}

	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	var err error
	for attempt := 0; attempt < maxCmdAttempts; attempt++ {
		err = s.execWriteOnce(&cdb, data, sp.Context())
		if err == nil || !s.retryTransient(err) {
			return err
		}
	}
	return err
}

// execWriteOnce runs one attempt of a write command: immediate data, then
// R2T-solicited Data-Out bursts, then the status wait.
func (s *Session) execWriteOnce(cdb *scsi.CDB, data []byte, spanCtx obs.SpanContext) error {
	params := s.Params()
	// Immediate (unsolicited) data up to FirstBurstLength.
	immediate := 0
	if params.ImmediateData && !params.InitialR2T {
		immediate = len(data)
		if immediate > params.FirstBurstLength {
			immediate = params.FirstBurstLength
		}
		if immediate > params.MaxRecvDataSegmentLength {
			immediate = params.MaxRecvDataSegmentLength
		}
	}
	p := getPending()
	p.cmd = iscsi.SCSICommand{
		Final:                      true,
		Write:                      true,
		ExpectedDataTransferLength: uint32(len(data)),
		Data:                       data[:immediate],
	}
	if _, err := cdb.EncodeInto(p.cmd.CDB[:]); err != nil {
		putPending(p)
		return err
	}
	itt, cmdSN, expStatSN, sc, err := s.register(p)
	if err != nil {
		putPending(p)
		return err
	}
	p.cmd.ITT = itt
	p.cmd.CmdSN = cmdSN
	p.cmd.ExpStatSN = expStatSN
	s.putTrace(sc, itt, spanCtx)
	if err := s.send(sc, &p.cmd); err != nil {
		// Not pooled: a concurrent connFailed may still signal this command.
		s.unregister(itt)
		return err
	}

	// Serve R2Ts until the transfer is fully solicited.
	sent := immediate
	for sent < len(data) {
		var r2t *iscsi.R2T
		select {
		case r2t = <-p.r2t:
		case <-p.done:
			perr, status := p.err, p.status
			putPending(p)
			if perr != nil {
				return perr
			}
			if status == byte(scsi.StatusBusy) {
				return ErrTargetBusy
			}
			return fmt.Errorf("initiator: write completed before data transfer (status %v)", scsi.Status(status))
		}
		err := s.sendBurst(sc, itt, r2t, data, params)
		sent = int(r2t.BufferOffset) + int(r2t.DesiredLength)
		r2tPool.Put(r2t)
		if err != nil {
			// Not pooled: a concurrent connFailed may still signal this command.
			s.unregister(itt)
			return err
		}
	}

	<-p.done
	status, sense, perr := p.status, p.sense, p.err
	putPending(p)
	if perr != nil {
		return perr
	}
	if sense != nil {
		return sense
	}
	if status == byte(scsi.StatusBusy) {
		return ErrTargetBusy
	}
	if status != byte(scsi.StatusGood) {
		return fmt.Errorf("initiator: %v", scsi.Status(status))
	}
	return nil
}

// sendBurst answers one R2T with Data-Out PDUs chunked to the negotiated
// segment length. Multi-segment bursts are encoded back-to-back and leave in
// a single vectored write — one wire rendezvous per burst, not per segment.
func (s *Session) sendBurst(sc *sconn, itt uint32, r2t *iscsi.R2T, data []byte, params iscsi.Params) error {
	start := int(r2t.BufferOffset)
	end := start + int(r2t.DesiredLength)
	if end > len(data) {
		return fmt.Errorf("initiator: R2T solicits bytes [%d,%d) beyond transfer of %d", start, end, len(data))
	}
	maxSeg := params.MaxRecvDataSegmentLength
	if maxSeg <= 0 {
		maxSeg = 8192
	}
	dout := iscsi.DataOut{ITT: itt, TTT: r2t.TTT}
	nseg := (end - start + maxSeg - 1) / maxSeg
	if nseg <= 1 {
		dout.Final = true
		dout.BufferOffset = uint32(start)
		dout.Data = data[start:end]
		return s.send(sc, &dout)
	}
	pdus := make([]iscsi.PDU, nseg)
	for i, off := 0, start; off < end; i++ {
		segEnd := off + maxSeg
		if segEnd > end {
			segEnd = end
		}
		dout.Final = segEnd == end
		dout.BufferOffset = uint32(off)
		dout.Data = data[off:segEnd]
		dout.EncodeInto(&pdus[i])
		dout.DataSN++
		off = segEnd
	}
	sc.writeMu.Lock()
	_, err := iscsi.WritePDUs(sc.conn, pdus)
	sc.writeMu.Unlock()
	if err != nil {
		s.connFailed(sc, err, true)
		return &transientErr{err}
	}
	return nil
}

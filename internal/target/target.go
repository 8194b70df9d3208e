// Package target implements the iSCSI target server of the StorM test bed:
// the back-end volume service endpoint (tgtd in the paper's prototype) and
// the pseudo-server half of every middle-box relay. It speaks the protocol
// subset the repo's initiator uses — login negotiation with the StorM
// source-port exposure, tag-multiplexed commands, immediate data,
// R2T-solicited Data-Out, and phase-collapse Data-In — and serves each
// logical unit from a blockdev.Device.
package target

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/iscsi"
	"repro/internal/obs"
	"repro/internal/scsi"
)

// LoginInfo describes an accepted login, passed to the login hook. The
// SourcePort is the StorM extension: the initiator-reported TCP source
// port that lets the platform attribute the connection to a VM.
type LoginInfo struct {
	TargetIQN    string
	InitiatorIQN string
	// AttachedVM is the VM name from the StorM AttachedVM key ("" when the
	// initiator did not send one).
	AttachedVM string
	// SourcePort is the initiator's TCP source port from the StorM
	// SourcePort key (0 when absent).
	SourcePort int
	// RemoteAddr is the connection's network address.
	RemoteAddr net.Addr
}

// Resolver maps a requested target IQN to a device for one session. The
// second result reports whether the server owns the device and must close
// it when the session ends (the relay's per-session service stacks);
// statically added targets are shared and never closed by the server.
type Resolver func(iqn string, conn net.Conn) (blockdev.Device, bool, error)

// Option configures a Server.
type Option func(*Server)

// WithResolver installs a per-session device resolver, consulted before
// the static target table.
func WithResolver(r Resolver) Option {
	return func(s *Server) { s.resolver = r }
}

// WithLoginHook installs a callback fired for each leading login the server
// accepts, before the login response is sent — so what it records is in place
// before the initiator can issue its first command. The price of that order:
// if sending the response then fails, the hook has fired for a login the
// initiator never saw complete, and nothing tells it so. What a hook records
// must be safe to leave behind — the platform's attribution is keyed by
// target IQN and overwritten by that initiator's next login.
func WithLoginHook(h func(LoginInfo)) Option {
	return func(s *Server) { s.loginHook = h }
}

// WithLogger installs a logger for session-level events (nil disables).
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithObs records a per-command stage span ("stage.<stage>.read/.write/
// .ctl") into reg for every SCSI command this server executes. A nil
// registry disables tracing.
func WithObs(reg *obs.Registry, stage string) Option {
	return func(s *Server) {
		s.obsReg = reg
		s.obsStage = stage
	}
}

// WithInquiry overrides the standard INQUIRY data served for every LUN.
func WithInquiry(d scsi.InquiryData) Option {
	return func(s *Server) { s.inquiry = d }
}

// WithParams overrides the operational parameters the server offers during
// login negotiation (burst windows, immediate data, MC/S connection bound).
// Each session still converges on the RFC result functions against what the
// initiator offers.
func WithParams(p iscsi.Params) Option {
	return func(s *Server) { s.params = p }
}

// WithInlineExec lets a quiet connection execute reads and fully-immediate
// writes inline in its read loop instead of a per-command goroutine, saving
// two scheduler wakeups per command. Only safe when the served device stack
// completes quickly (early-ack relay fronts, memory disks): an inline command
// blocks the connection until it completes.
func WithInlineExec() Option {
	return func(s *Server) { s.inlineExec = true }
}

// Server is an iSCSI target serving block devices to initiator sessions.
// It may serve multiple listeners and many concurrent sessions.
type Server struct {
	resolver   Resolver
	loginHook  func(LoginInfo)
	logger     *log.Logger
	inquiry    scsi.InquiryData
	params     iscsi.Params
	inlineExec bool
	obsReg     *obs.Registry
	obsStage   string

	mu        sync.Mutex
	targets   map[string]blockdev.Device
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	// sessions tracks live sessions by (initiator, ISID, target IQN) for
	// MC/S connection joining and session reinstatement; tsihSeq hands out
	// target session identifying handles.
	sessMu   sync.Mutex
	sessions map[sessionKey]*session
	tsihSeq  uint16

	wg sync.WaitGroup
}

// dropSession removes ss from the registry unless a reinstating login
// already took its key.
func (s *Server) dropSession(ss *session) {
	s.sessMu.Lock()
	if s.sessions[ss.key] == ss {
		delete(s.sessions, ss.key)
	}
	s.sessMu.Unlock()
}

// NewServer builds a server with the given options.
func NewServer(opts ...Option) *Server {
	// The server is willing to carry wider MC/S sessions than the initiator
	// default requests: negotiation takes the minimum, so plain initiators
	// still get single-connection sessions while relays asking for a
	// multi-connection forward leg converge on their requested width.
	params := iscsi.DefaultParams()
	params.MaxConnections = 8
	s := &Server{
		inquiry:   scsi.InquiryData{Vendor: "STORM", Product: "VIRTUAL-DISK", Revision: "0001"},
		params:    params,
		obsStage:  obs.StageTarget,
		targets:   make(map[string]blockdev.Device),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		sessions:  make(map[sessionKey]*session),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// AddTarget exports dev under the given IQN. The server never closes
// statically added devices; they may back many concurrent sessions.
func (s *Server) AddTarget(iqn string, dev blockdev.Device) error {
	if iqn == "" {
		return errors.New("target: empty IQN")
	}
	if dev == nil {
		return fmt.Errorf("target: nil device for %q", iqn)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.targets[iqn]; ok {
		return fmt.Errorf("target: %q already exported", iqn)
	}
	s.targets[iqn] = dev
	return nil
}

// RemoveTarget stops exporting the IQN. Established sessions keep their
// device.
func (s *Server) RemoveTarget(iqn string) {
	s.mu.Lock()
	delete(s.targets, iqn)
	s.mu.Unlock()
}

// targetNames returns the exported IQNs (for SendTargets discovery).
func (s *Server) targetNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.targets))
	for iqn := range s.targets {
		out = append(out, iqn)
	}
	return out
}

// lookup finds a device for the session: resolver first, then the static
// table.
func (s *Server) lookup(iqn string, conn net.Conn) (blockdev.Device, bool, error) {
	if s.resolver != nil {
		dev, owned, err := s.resolver(iqn, conn)
		if err != nil || dev != nil {
			return dev, owned, err
		}
	}
	s.mu.Lock()
	dev := s.targets[iqn]
	s.mu.Unlock()
	if dev == nil {
		return nil, false, fmt.Errorf("target: unknown target %q", iqn)
	}
	return dev, false, nil
}

// Serve accepts sessions on ln until the listener or server is closed.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops all listeners, aborts active sessions, and waits for their
// goroutines. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// logf logs through the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

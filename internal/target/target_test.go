package target_test

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/iscsi"
	"repro/internal/scsi"
	"repro/internal/target"
)

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// queueListener feeds test-created pipe connections to Server.Serve.
type queueListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newQueueListener() *queueListener {
	return &queueListener{ch: make(chan net.Conn, 4), done: make(chan struct{})}
}

func (l *queueListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *queueListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *queueListener) Addr() net.Addr { return pipeAddr{} }

const testIQN = "iqn.2016-04.edu.purdue.storm:unit"

// serveTarget starts srv on a fresh queue listener and tears it down with
// the test.
func serveTarget(t *testing.T, srv *target.Server) *queueListener {
	t.Helper()
	ln := newQueueListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln
}

func dialTarget(t *testing.T, ln *queueListener) net.Conn {
	t.Helper()
	c, s := net.Pipe()
	ln.ch <- s
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func readPDU(t *testing.T, conn net.Conn) *iscsi.PDU {
	t.Helper()
	p, err := iscsi.ReadPDU(conn)
	if err != nil {
		t.Fatalf("read PDU: %v", err)
	}
	return p
}

// rawLogin drives the single-round login exchange by hand so tests can
// inspect the response and then speak raw PDUs on the session.
func rawLogin(t *testing.T, conn net.Conn, pairs map[string]string) *iscsi.LoginResponse {
	t.Helper()
	req := &iscsi.LoginRequest{
		Transit: true,
		CSG:     iscsi.StageOperational,
		NSG:     iscsi.StageFullFeature,
		ITT:     1,
		CmdSN:   1,
		Pairs:   pairs,
	}
	if _, err := req.Encode().WriteTo(conn); err != nil {
		t.Fatalf("send login request: %v", err)
	}
	resp, err := iscsi.ParseLoginResponse(readPDU(t, conn))
	if err != nil {
		t.Fatalf("parse login response: %v", err)
	}
	return resp
}

func memTarget(t *testing.T, opts ...target.Option) (*target.Server, *blockdev.MemDisk, *queueListener) {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 128)
	if err != nil {
		t.Fatal(err)
	}
	srv := target.NewServer(opts...)
	if err := srv.AddTarget(testIQN, disk); err != nil {
		t.Fatal(err)
	}
	return srv, disk, serveTarget(t, srv)
}

// TestLoginNegotiatesParamsAndFiresHook covers the happy-path login through
// the real initiator: parameters take the conservative merge, the login hook
// sees the session identity, and I/O round-trips afterwards.
func TestLoginNegotiatesParamsAndFiresHook(t *testing.T) {
	infoCh := make(chan target.LoginInfo, 1)
	_, disk, ln := memTarget(t, target.WithLoginHook(func(info target.LoginInfo) {
		infoCh <- info
	}))

	params := iscsi.DefaultParams()
	params.FirstBurstLength = 4096
	sess, err := initiator.Login(dialTarget(t, ln), initiator.Config{
		InitiatorIQN: "iqn.2016-04.edu.purdue.storm:vm1",
		TargetIQN:    testIQN,
		AttachedVM:   "vm-1",
		Params:       params,
	})
	if err != nil {
		t.Fatalf("login: %v", err)
	}

	// The hook runs before the login response is sent, so it has fired by
	// the time Login returns — no waiting.
	var info target.LoginInfo
	select {
	case info = <-infoCh:
	default:
		t.Fatal("login hook had not fired when Login returned")
	}
	if info.TargetIQN != testIQN {
		t.Errorf("hook TargetIQN = %q, want %q", info.TargetIQN, testIQN)
	}
	if info.InitiatorIQN != "iqn.2016-04.edu.purdue.storm:vm1" {
		t.Errorf("hook InitiatorIQN = %q", info.InitiatorIQN)
	}
	if info.AttachedVM != "vm-1" {
		t.Errorf("hook AttachedVM = %q, want vm-1", info.AttachedVM)
	}
	if got := sess.Params().FirstBurstLength; got != 4096 {
		t.Errorf("negotiated FirstBurstLength = %d, want 4096 (min of offer and default)", got)
	}

	want := bytes.Repeat([]byte{0xA5}, 512)
	if err := sess.Write(3, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(3, 1, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("round trip corrupted data")
	}
	if err := sess.Logout(); err != nil {
		t.Fatalf("Logout: %v", err)
	}
	check := make([]byte, 512)
	if err := disk.ReadAt(check, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, want) {
		t.Error("write never reached the backing device")
	}
}

// closeNotifyDisk is a session-owned device that reports its Close.
type closeNotifyDisk struct {
	blockdev.Device
	closed chan struct{}
}

func (d *closeNotifyDisk) Close() error {
	d.closed <- struct{}{}
	return nil
}

// TestLoginHookFiresBeforeAFailedResponse pins the price of running the hook
// before the login response: when the response cannot be sent the hook has
// already fired and is not told, the half-made session is torn down (its
// owned device closed), and the initiator's next login fires the hook again
// — the record that supersedes the stale one.
func TestLoginHookFiresBeforeAFailedResponse(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 128)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{}, 2)
	var (
		mu     sync.Mutex
		ports  []int
		victim net.Conn // client end the first hook call closes
	)
	srv := target.NewServer(
		target.WithResolver(func(string, net.Conn) (blockdev.Device, bool, error) {
			return &closeNotifyDisk{Device: disk, closed: closed}, true, nil
		}),
		target.WithLoginHook(func(info target.LoginInfo) {
			mu.Lock()
			defer mu.Unlock()
			ports = append(ports, info.SourcePort)
			if len(ports) == 1 {
				_ = victim.Close() // the response write that follows must fail
			}
		}))
	ln := serveTarget(t, srv)
	pairs := func(port string) map[string]string {
		return map[string]string{
			iscsi.KeyInitiatorName: "iqn.vm",
			iscsi.KeyTargetName:    testIQN,
			iscsi.KeySourcePort:    port,
		}
	}

	victim = dialTarget(t, ln)
	req := &iscsi.LoginRequest{
		Transit: true, CSG: iscsi.StageOperational, NSG: iscsi.StageFullFeature,
		ITT: 1, CmdSN: 1, Pairs: pairs("40001"),
	}
	if _, err := req.Encode().WriteTo(victim); err != nil {
		t.Fatalf("send login request: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("session of the failed login was never torn down")
	}
	mu.Lock()
	if len(ports) != 1 || ports[0] != 40001 {
		t.Fatalf("hook calls after the failed login = %v, want [40001]", ports)
	}
	mu.Unlock()

	// The same initiator logs in again on a fresh connection.
	if resp := rawLogin(t, dialTarget(t, ln), pairs("40002")); resp.StatusClass != iscsi.LoginStatusSuccess {
		t.Fatalf("second login: StatusClass = 0x%02x, want success", resp.StatusClass)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ports) != 2 || ports[1] != 40002 {
		t.Fatalf("hook calls = %v, want [40001 40002]", ports)
	}
}

// TestLoginRejected pins the reject path: unknown targets and malformed
// negotiation keys must produce a Login Response with an initiator-error
// status class, not a hang or a silent close.
func TestLoginRejected(t *testing.T) {
	_, _, ln := memTarget(t)
	cases := []struct {
		name  string
		pairs map[string]string
	}{
		{"unknown target", map[string]string{
			iscsi.KeyInitiatorName: "iqn.vm",
			iscsi.KeyTargetName:    "iqn.no-such-target",
		}},
		{"bad negotiation value", map[string]string{
			iscsi.KeyInitiatorName: "iqn.vm",
			iscsi.KeyTargetName:    testIQN,
			iscsi.KeyFirstBurst:    "-7",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialTarget(t, ln)
			resp := rawLogin(t, conn, tc.pairs)
			if resp.StatusClass != iscsi.LoginStatusInitiatorErr {
				t.Fatalf("StatusClass = 0x%02x, want initiator error 0x%02x",
					resp.StatusClass, iscsi.LoginStatusInitiatorErr)
			}
			// The server tears the connection down after a reject.
			if _, err := iscsi.ReadPDU(conn); err == nil {
				t.Fatal("connection still alive after login reject")
			}
		})
	}
}

// fullFeaturePairs logs a raw session in with small bursts so solicited
// transfers are easy to provoke.
func smallBurstLogin(t *testing.T, conn net.Conn) *iscsi.LoginResponse {
	t.Helper()
	resp := rawLogin(t, conn, map[string]string{
		iscsi.KeyInitiatorName: "iqn.raw-client",
		iscsi.KeyTargetName:    testIQN,
		iscsi.KeyFirstBurst:    "512",
		iscsi.KeyMaxBurst:      "1024",
		iscsi.KeyMaxRecvDSL:    "1024",
		iscsi.KeyImmediateData: "Yes",
		iscsi.KeyInitialR2T:    "No",
	})
	if resp.StatusClass != iscsi.LoginStatusSuccess {
		t.Fatalf("login StatusClass = 0x%02x, want success", resp.StatusClass)
	}
	return resp
}

// TestR2TSolicitedWriteFlow drives a write bigger than the first burst PDU
// by PDU and checks every R2T the target solicits: offsets, desired lengths,
// R2T sequence numbers, and the final GOOD status, with the data landing
// intact on the device.
func TestR2TSolicitedWriteFlow(t *testing.T) {
	_, disk, ln := memTarget(t)
	conn := dialTarget(t, ln)
	smallBurstLogin(t, conn)

	data := make([]byte, 2048) // 4 blocks; first 512 go as immediate data
	for i := range data {
		data[i] = byte(i * 11)
	}
	const itt = 0x10
	cmd := &iscsi.SCSICommand{
		Final:                      true,
		Write:                      true,
		ITT:                        itt,
		ExpectedDataTransferLength: uint32(len(data)),
		CmdSN:                      2,
		ExpStatSN:                  2,
		Data:                       data[:512],
	}
	if _, err := scsi.NewWrite(4, 4).EncodeInto(cmd.CDB[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := cmd.Encode().WriteTo(conn); err != nil {
		t.Fatalf("send write command: %v", err)
	}

	// Remaining 1536 bytes arrive in two solicited bursts: 1024 (MaxBurst)
	// then 512.
	wantBursts := []struct {
		offset, desired, r2tsn uint32
	}{
		{512, 1024, 0},
		{1536, 512, 1},
	}
	for _, want := range wantBursts {
		r2t, err := iscsi.ParseR2T(readPDU(t, conn))
		if err != nil {
			t.Fatalf("parse R2T: %v", err)
		}
		if r2t.ITT != itt || r2t.BufferOffset != want.offset ||
			r2t.DesiredLength != want.desired || r2t.R2TSN != want.r2tsn {
			t.Fatalf("R2T = {ITT:%#x off:%d len:%d sn:%d}, want {ITT:%#x off:%d len:%d sn:%d}",
				r2t.ITT, r2t.BufferOffset, r2t.DesiredLength, r2t.R2TSN,
				itt, want.offset, want.desired, want.r2tsn)
		}
		dout := &iscsi.DataOut{
			Final:        true,
			ITT:          itt,
			TTT:          r2t.TTT,
			BufferOffset: want.offset,
			Data:         data[want.offset : want.offset+want.desired],
		}
		if _, err := dout.Encode().WriteTo(conn); err != nil {
			t.Fatalf("send Data-Out: %v", err)
		}
	}

	resp, err := iscsi.ParseSCSIResponse(readPDU(t, conn))
	if err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if resp.ITT != itt || resp.Status != byte(scsi.StatusGood) {
		t.Fatalf("response ITT=%#x status=%#x, want ITT=%#x GOOD", resp.ITT, resp.Status, itt)
	}
	got := make([]byte, 2048)
	for i := 0; i < 4; i++ {
		if err := disk.ReadAt(got[i*512:(i+1)*512], uint64(4+i)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("solicited write corrupted data on the device")
	}
}

// TestZeroLengthWriteAnswered: a WRITE(10) with transfer length 0 carries no
// data and completes GOOD like any other command (it once read as "session
// ended" and was never answered).
func TestZeroLengthWriteAnswered(t *testing.T) {
	_, _, ln := memTarget(t)
	conn := dialTarget(t, ln)
	smallBurstLogin(t, conn)
	cmd := &iscsi.SCSICommand{Final: true, Write: true, ITT: 0x30, CmdSN: 2, ExpStatSN: 2}
	if _, err := scsi.NewWrite(4, 0).EncodeInto(cmd.CDB[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := cmd.Encode().WriteTo(conn); err != nil {
		t.Fatalf("send write command: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := iscsi.ParseSCSIResponse(readPDU(t, conn))
	if err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if resp.ITT != 0x30 || resp.Status != byte(scsi.StatusGood) {
		t.Fatalf("response ITT=%#x status=%#x, want ITT=0x30 GOOD", resp.ITT, resp.Status)
	}
}

// tapConn counts what the target writes after the client has hung up.
type tapConn struct {
	net.Conn
	hungUp atomic.Bool
	late   atomic.Int64
}

func (c *tapConn) Write(b []byte) (int, error) {
	if c.hungUp.Load() {
		c.late.Add(int64(len(b)))
	}
	return c.Conn.Write(b)
}

// TestWriteDroppedMidR2TUnanswered: a write whose session ends while its
// solicited data is outstanding is abandoned without a response — the
// session's teardown, which waits for every command, finds nothing sent after
// the hang-up.
func TestWriteDroppedMidR2TUnanswered(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 128)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{}, 1)
	srv := target.NewServer(target.WithResolver(func(string, net.Conn) (blockdev.Device, bool, error) {
		return &closeNotifyDisk{Device: disk, closed: closed}, true, nil
	}))
	ln := serveTarget(t, srv)
	conn, s := net.Pipe()
	tap := &tapConn{Conn: s}
	ln.ch <- tap
	smallBurstLogin(t, conn)

	cmd := &iscsi.SCSICommand{
		Final: true, Write: true, ITT: 0x40, CmdSN: 2, ExpStatSN: 2,
		ExpectedDataTransferLength: 2048, Data: make([]byte, 512),
	}
	if _, err := scsi.NewWrite(4, 4).EncodeInto(cmd.CDB[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := cmd.Encode().WriteTo(conn); err != nil {
		t.Fatalf("send write command: %v", err)
	}
	if p := readPDU(t, conn); p.Op() != iscsi.OpR2T {
		t.Fatalf("got %v, want the R2T", p.Op())
	}
	tap.hungUp.Store(true)
	_ = conn.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("session never tore down after the hang-up")
	}
	if n := tap.late.Load(); n != 0 {
		t.Errorf("target wrote %d bytes for a write whose session had ended", n)
	}
}

// gatedDisk parks WriteAt until released, so a test can hold a command in
// flight at the device.
type gatedDisk struct {
	blockdev.Device
	started chan struct{}
	release chan struct{}
}

func (g *gatedDisk) WriteAt(p []byte, lba uint64) error {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.release
	return g.Device.WriteAt(p, lba)
}

// TestLogoutWaitsForInFlightCommand pins the ordered-teardown contract: a
// Logout issued while a write is still executing must be acknowledged only
// after that command completes — the SCSI Response arrives strictly before
// the Logout Response.
func TestLogoutWaitsForInFlightCommand(t *testing.T) {
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedDisk{Device: disk, started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := target.NewServer()
	if err := srv.AddTarget(testIQN, gate); err != nil {
		t.Fatal(err)
	}
	ln := serveTarget(t, srv)
	conn := dialTarget(t, ln)
	rawLogin(t, conn, map[string]string{
		iscsi.KeyInitiatorName: "iqn.raw-client",
		iscsi.KeyTargetName:    testIQN,
	})

	payload := bytes.Repeat([]byte{0x5A}, 512)
	cmd := &iscsi.SCSICommand{
		Final: true, Write: true, ITT: 0x20,
		ExpectedDataTransferLength: 512, CmdSN: 2, Data: payload,
	}
	if _, err := scsi.NewWrite(9, 1).EncodeInto(cmd.CDB[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := cmd.Encode().WriteTo(conn); err != nil {
		t.Fatalf("send write command: %v", err)
	}
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("write never reached the device")
	}
	logout := &iscsi.LogoutRequest{ITT: 0x21, CmdSN: 3}
	if _, err := logout.Encode().WriteTo(conn); err != nil {
		t.Fatalf("send logout: %v", err)
	}
	close(gate.release)

	first := readPDU(t, conn)
	if first.Op() != iscsi.OpSCSIResponse {
		t.Fatalf("first PDU after logout = %v, want the in-flight command's SCSI Response", first.Op())
	}
	resp, err := iscsi.ParseSCSIResponse(first)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ITT != 0x20 || resp.Status != byte(scsi.StatusGood) {
		t.Fatalf("command completed ITT=%#x status=%#x, want ITT=0x20 GOOD", resp.ITT, resp.Status)
	}
	lresp, err := iscsi.ParseLogoutResponse(readPDU(t, conn))
	if err != nil {
		t.Fatalf("parse logout response: %v", err)
	}
	if lresp.ITT != 0x21 {
		t.Fatalf("logout response ITT = %#x, want 0x21", lresp.ITT)
	}
	check := make([]byte, 512)
	if err := disk.ReadAt(check, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, payload) {
		t.Fatal("logout acknowledged but the in-flight write never landed")
	}
}

// TestUnsupportedPDURejected sends an opcode the target does not implement
// and expects a Reject PDU echoing the offending header, then session end.
func TestUnsupportedPDURejected(t *testing.T) {
	_, _, ln := memTarget(t)
	conn := dialTarget(t, ln)
	rawLogin(t, conn, map[string]string{
		iscsi.KeyInitiatorName: "iqn.raw-client",
		iscsi.KeyTargetName:    testIQN,
	})

	bad := &iscsi.PDU{}
	bad.SetOp(iscsi.OpTaskMgmtReq)
	bad.BHS[1] = 0x80
	bad.SetITT(0x77)
	if _, err := bad.WriteTo(conn); err != nil {
		t.Fatalf("send unsupported PDU: %v", err)
	}
	rej, err := iscsi.ParseReject(readPDU(t, conn))
	if err != nil {
		t.Fatalf("parse reject: %v", err)
	}
	if rej.Reason != iscsi.RejectCommandNotSupported {
		t.Fatalf("reject reason = %#x, want command-not-supported %#x",
			rej.Reason, iscsi.RejectCommandNotSupported)
	}
	if len(rej.Header) < 48 || iscsi.Opcode(rej.Header[0]&0x3F) != iscsi.OpTaskMgmtReq {
		t.Fatalf("reject header does not echo the offending BHS (len=%d)", len(rej.Header))
	}
	if _, err := iscsi.ReadPDU(conn); err == nil {
		t.Fatal("session still alive after rejecting unsupported PDU")
	}
}

// TestNopOutEcho checks the keepalive path used by connection liveness
// probing: a NOP-Out gets a NOP-In with the same ITT and reserved TTT.
func TestNopOutEcho(t *testing.T) {
	_, _, ln := memTarget(t)
	conn := dialTarget(t, ln)
	rawLogin(t, conn, map[string]string{
		iscsi.KeyInitiatorName: "iqn.raw-client",
		iscsi.KeyTargetName:    testIQN,
	})
	nop := &iscsi.NopOut{ITT: 9, TTT: 0xFFFFFFFF, CmdSN: 2, ExpStatSN: 2}
	if _, err := nop.Encode().WriteTo(conn); err != nil {
		t.Fatalf("send NOP-Out: %v", err)
	}
	in, err := iscsi.ParseNopIn(readPDU(t, conn))
	if err != nil {
		t.Fatalf("parse NOP-In: %v", err)
	}
	if in.ITT != 9 || in.TTT != 0xFFFFFFFF {
		t.Fatalf("NOP-In ITT=%d TTT=%#x, want ITT=9 TTT=0xFFFFFFFF", in.ITT, in.TTT)
	}
}

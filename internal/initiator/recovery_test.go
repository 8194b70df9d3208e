package initiator

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/iscsi"
	"repro/internal/scsi"
	"repro/internal/target"
	"repro/internal/testutil"
)

// stubSession logs a session in against a scripted target. The stub answers
// the login handshake with the given initial StatSN, then hands the server
// half of the pipe to serve.
func stubSession(t *testing.T, cfg Config, statSN uint32, serve func(conn net.Conn)) *Session {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		pdu, err := iscsi.ReadPDU(server)
		if err != nil {
			return
		}
		req, err := iscsi.ParseLoginRequest(pdu)
		if err != nil {
			return
		}
		resp := &iscsi.LoginResponse{
			Transit:  true,
			CSG:      iscsi.StageOperational,
			NSG:      iscsi.StageFullFeature,
			ISID:     req.ISID,
			TSIH:     1,
			ITT:      req.ITT,
			StatSN:   statSN,
			ExpCmdSN: req.CmdSN + 1,
			MaxCmdSN: req.CmdSN + 32,
		}
		if _, err := resp.Encode().WriteTo(server); err != nil {
			return
		}
		serve(server)
	}()
	cfg.InitiatorIQN = "iqn.stub-client"
	cfg.TargetIQN = "iqn.stub-target"
	sess, err := Login(client, cfg)
	if err != nil {
		t.Fatalf("Login against stub: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	return sess
}

// TestDataInOutOfBoundsFailsCommandAndSession covers the latent bug where a
// Data-In segment landing beyond the command buffer was silently dropped and
// the read completed GOOD with short data: it must fail the command and tear
// down the session.
func TestDataInOutOfBoundsFailsCommandAndSession(t *testing.T) {
	sess := stubSession(t, Config{}, 1, func(conn net.Conn) {
		pdu, err := iscsi.ReadPDU(conn)
		if err != nil {
			return
		}
		cmd, err := iscsi.ParseSCSICommand(pdu)
		if err != nil {
			return
		}
		din := &iscsi.DataIn{
			Final:         true,
			StatusPresent: true,
			Status:        byte(scsi.StatusGood),
			ITT:           cmd.ITT,
			StatSN:        2,
			BufferOffset:  1 << 20, // far beyond the 512-byte buffer
			Data:          bytes.Repeat([]byte{0xAB}, 64),
		}
		din.EncodeInto(&iscsi.PDU{}).WriteTo(conn)
	})
	_, err := sess.Read(0, 1, 512)
	if err == nil {
		t.Fatal("Read with out-of-bounds Data-In returned nil error")
	}
	if !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("Read error = %v, want out-of-bounds protocol error", err)
	}
	// The session must be dead, not limping.
	if _, err := sess.Read(0, 1, 512); err == nil {
		t.Fatal("session still accepts commands after protocol violation")
	}
}

// TestDataInOverDeliveryFails covers the second half of the same bug: total
// delivered bytes exceeding the buffer (overlapping segments) must also fail
// the command rather than complete GOOD.
func TestDataInOverDeliveryFails(t *testing.T) {
	sess := stubSession(t, Config{}, 1, func(conn net.Conn) {
		pdu, err := iscsi.ReadPDU(conn)
		if err != nil {
			return
		}
		cmd, err := iscsi.ParseSCSICommand(pdu)
		if err != nil {
			return
		}
		seg := bytes.Repeat([]byte{0x11}, 512)
		first := &iscsi.DataIn{ITT: cmd.ITT, BufferOffset: 0, Data: seg}
		first.EncodeInto(&iscsi.PDU{}).WriteTo(conn)
		second := &iscsi.DataIn{
			Final: true, StatusPresent: true, Status: byte(scsi.StatusGood),
			ITT: cmd.ITT, StatSN: 2, BufferOffset: 0, Data: seg,
		}
		second.EncodeInto(&iscsi.PDU{}).WriteTo(conn)
	})
	if _, err := sess.Read(0, 1, 512); err == nil || !strings.Contains(err.Error(), "over-delivers") {
		t.Fatalf("Read error = %v, want over-delivery protocol error", err)
	}
}

// TestStatSNWraparound drives expStatSN across the uint32 boundary and
// asserts every command acknowledges the previous status (the plain > would
// stall ExpStatSN at 0xFFFFFFFF forever).
func TestStatSNWraparound(t *testing.T) {
	statSNs := []uint32{0xFFFFFFFE, 0xFFFFFFFF, 0, 1}
	wantExp := []uint32{0xFFFFFFFE, 0xFFFFFFFF, 0, 1}
	got := make(chan []uint32, 1)
	sess := stubSession(t, Config{}, 0xFFFFFFFE, func(conn net.Conn) {
		var exps []uint32
		for _, sn := range statSNs {
			pdu, err := iscsi.ReadPDU(conn)
			if err != nil {
				return
			}
			cmd, err := iscsi.ParseSCSICommand(pdu)
			if err != nil {
				return
			}
			exps = append(exps, cmd.ExpStatSN)
			resp := &iscsi.SCSIResponse{ITT: cmd.ITT, Status: byte(scsi.StatusGood), StatSN: sn}
			if _, err := resp.EncodeInto(&iscsi.PDU{}).WriteTo(conn); err != nil {
				return
			}
		}
		got <- exps
	})
	for i := range statSNs {
		if err := sess.Flush(); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	exps := <-got
	for i, want := range wantExp {
		if exps[i] != want {
			t.Errorf("command %d carried ExpStatSN %#x, want %#x", i, exps[i], want)
		}
	}
}

// mcsHarness serves a real target and returns an MC/S session of four
// connections whose DialConn feeds fresh pipes into it (cfg.DialConn, when
// set, replaces it after the leading login), plus the backing disk.
func mcsHarness(t *testing.T, cfg Config) (*Session, *blockdev.MemDisk) {
	t.Helper()
	dev, err := blockdev.NewMemDisk(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	srv := target.NewServer()
	if err := srv.AddTarget(rtIQN, dev); err != nil {
		t.Fatal(err)
	}
	ln := newChanListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)

	dial := func() (net.Conn, error) {
		client, server := net.Pipe()
		select {
		case ln.conns <- server:
			return client, nil
		case <-ln.done:
			return nil, net.ErrClosed
		}
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	later := cfg.DialConn
	cfg.InitiatorIQN = "iqn.rt-client"
	cfg.TargetIQN = rtIQN
	cfg.Conns = 4
	cfg.DialConn = dial
	sess, err := Login(conn, cfg)
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	if got := sess.NumConns(); got != 4 {
		t.Fatalf("NumConns = %d after login, want 4", got)
	}
	if later != nil {
		sess.mu.Lock()
		sess.cfg.DialConn = later
		sess.mu.Unlock()
	}
	return sess, dev
}

// cutSecondary closes the transport of the session's first healthy MC/S
// secondary connection, as a link failure under it would.
func cutSecondary(s *Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sc := range s.conns[1:] {
		if !sc.dead {
			sc.conn.Close()
			return
		}
	}
}

// TestReconnectRetriesInFlightCommands cuts an MC/S secondary connection
// twice mid-workload (at schedule-determined points, no wall clocks) and
// asserts every write completes and lands: the commands with allegiance to
// the lost connection are reissued on the survivors, and the session
// reattaches the secondary in the background.
func TestReconnectRetriesInFlightCommands(t *testing.T) {
	sess, dev := mcsHarness(t, Config{QueueDepth: 8})

	sched := faults.NewSchedule()
	sched.At(6, "cut-1", func() { cutSecondary(sess) })
	sched.At(14, "cut-2", func() { cutSecondary(sess) })

	const (
		writers   = 4
		perWriter = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g + 1)}, 1024)
			for i := 0; i < perWriter; i++ {
				lba := uint64(g*perWriter+i) * 2
				if err := sess.Write(lba, payload, 512); err != nil {
					errs <- err
					return
				}
				sched.Step()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("write failed across a secondary connection loss: %v", err)
	}
	if fired := sched.Fired(); len(fired) != 2 {
		t.Fatalf("schedule fired %v, want both cuts", fired)
	}
	// Every write must be present on the backing disk.
	for g := 0; g < writers; g++ {
		want := bytes.Repeat([]byte{byte(g + 1)}, 1024)
		for i := 0; i < perWriter; i++ {
			lba := uint64(g*perWriter+i) * 2
			got := make([]byte, 1024)
			if err := dev.ReadAt(got, lba); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("writer %d block %d lost or corrupted after reconnects", g, i)
			}
		}
	}
	testutil.WaitFor(t, 5*time.Second, "both secondaries reattached", func() bool { return sess.NumConns() == 4 })
}

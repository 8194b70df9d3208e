package target_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/iscsi"
	"repro/internal/netsim"
	"repro/internal/scsi"
	"repro/internal/target"
)

// TestConcurrentCommandsKeepTheirData runs 8 commands at a time down one
// connection whose writes never block (a netsim pipe), so command PDUs and
// R2T-solicited Data-Out trains of different commands pile up in the
// target's staging window and its read loop goes on to the next PDU while
// earlier commands are still running. The read loop decodes every PDU into
// the one PDU its reader owns: a command must have copied the header fields
// and taken the immediate data it needs before that happens. Each 64 KiB
// write is 4 KiB immediate plus four solicited bursts; every byte is read
// back. With and without inline execution; run with -race.
func TestConcurrentCommandsKeepTheirData(t *testing.T) {
	const (
		workers = 8
		rounds  = 25
		ioBytes = 64 * 1024
	)
	for _, inline := range []bool{false, true} {
		t.Run(fmt.Sprintf("inline=%v", inline), func(t *testing.T) {
			fabric := netsim.NewFabric(netsim.Model{MTU: 8192})
			sh, err := fabric.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
			if err != nil {
				t.Fatal(err)
			}
			ch, err := fabric.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
			if err != nil {
				t.Fatal(err)
			}
			disk, err := blockdev.NewMemDisk(512, workers*ioBytes/512)
			if err != nil {
				t.Fatal(err)
			}
			var opts []target.Option
			if inline {
				opts = append(opts, target.WithInlineExec())
			}
			srv := target.NewServer(opts...)
			if err := srv.AddTarget(testIQN, disk); err != nil {
				t.Fatal(err)
			}
			ln, err := sh.NewEndpoint("tgtd").Listen(netsim.StorageNet, 3260)
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(srv.Close)

			conn, err := ch.NewEndpoint("vm").Dial(netsim.StorageNet, "10.0.0.100:3260")
			if err != nil {
				t.Fatal(err)
			}
			params := iscsi.DefaultParams()
			params.FirstBurstLength = 4096
			params.MaxBurstLength = 16384
			sess, err := initiator.Login(conn, initiator.Config{InitiatorIQN: "iqn.vm1", TargetIQN: testIQN, Params: params})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sess.Close() })

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lba := uint64(w * ioBytes / 512)
					want, got := make([]byte, ioBytes), make([]byte, ioBytes)
					for r := 0; r < rounds; r++ {
						for i := range want {
							want[i] = byte(w*31 + r*7 + i/512 + i)
						}
						if err := sess.Write(lba, want, 512); err != nil {
							t.Errorf("worker %d round %d: write: %v", w, r, err)
							return
						}
						if _, err := sess.ReadInto(got, lba, ioBytes/512, 512); err != nil {
							t.Errorf("worker %d round %d: read: %v", w, r, err)
							return
						}
						if !bytes.Equal(got, want) {
							t.Errorf("worker %d round %d: read back other bytes than written", w, r)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestPipelinedCommandGetsItsOwnGoroutine: under WithInlineExec a command
// runs inline only when nothing is queued behind it. Two commands that
// arrive as separate frames while the read loop is busy must not run
// inline: the first of them (a write held at the device) gets a goroutine,
// so the read behind it is served before that write completes.
func TestPipelinedCommandGetsItsOwnGoroutine(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Model{MTU: 8192})
	sh, err := fabric.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := fabric.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blockdev.NewMemDisk(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedDisk{Device: disk, started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := target.NewServer(target.WithInlineExec())
	if err := srv.AddTarget(testIQN, gate); err != nil {
		t.Fatal(err)
	}
	ln, err := sh.NewEndpoint("tgtd").Listen(netsim.StorageNet, 3260)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	conn, err := ch.NewEndpoint("vm").Dial(netsim.StorageNet, "10.0.0.100:3260")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	t.Cleanup(func() { close(gate.release) }) // first: a failed run may leave a write held
	rawLogin(t, conn, map[string]string{iscsi.KeyInitiatorName: "iqn.raw-client", iscsi.KeyTargetName: testIQN})

	send := func(itt, cmdSN uint32, write bool) {
		t.Helper()
		cmd := &iscsi.SCSICommand{Final: true, ITT: itt, CmdSN: cmdSN, ExpectedDataTransferLength: 512}
		cdb := scsi.ReadCDB(uint64(itt), 1)
		if write {
			cmd.Write, cmd.Data, cdb = true, make([]byte, 512), scsi.WriteCDB(uint64(itt), 1)
		} else {
			cmd.Read = true
		}
		if _, err := cdb.EncodeInto(cmd.CDB[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := cmd.EncodeInto(&iscsi.PDU{}).WriteTo(conn); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(itt uint32) {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if p := readPDU(t, conn); p.ITT() != itt {
			t.Fatalf("%v for ITT %d, want ITT %d", p.Op(), p.ITT(), itt)
		}
	}

	send(1, 2, true) // quiet connection: runs inline, held at the device
	<-gate.started
	send(2, 3, true)  // queued behind it, as a frame of its own ...
	send(3, 4, false) // ... and so is this read
	gate.release <- struct{}{}
	expect(1)
	<-gate.started // write 2 is at the device: the read must still get through
	expect(3)
	gate.release <- struct{}{}
	expect(2)
}

package target_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/iscsi"
	"repro/internal/netsim"
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

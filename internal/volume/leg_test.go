package volume

import (
	"testing"

	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// legDevice is a LEGACY attach over the zero-cost fabric: a VM-side initiator
// logged straight into the volume service's target with nothing modelled on
// the wire or the disk and the same instrumentation the platform wires in
// (stage spans into the default registry, tracing off) — so one ReadAt or
// WriteAt is exactly one iSCSI leg, the unit every chain is a sum of.
func legDevice(tb testing.TB) *initiator.Device {
	tb.Helper()
	fabric := netsim.NewFabric(netsim.Model{MTU: 8192})
	sh, err := fabric.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		tb.Fatal(err)
	}
	ch, err := fabric.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := NewService(sh.NewEndpoint("tgtd"), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	v, err := svc.Create("leg", 4<<20) // 64 slots of the largest legOp
	if err != nil {
		tb.Fatal(err)
	}
	conn, err := ch.NewEndpoint("vm1").Dial(netsim.StorageNet, svc.TargetAddr().String())
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := initiator.Login(conn, initiator.Config{InitiatorIQN: "iqn.vm1", TargetIQN: v.IQN, Obs: obs.Default()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = sess.Close() })
	dev, err := initiator.OpenDevice(sess)
	if err != nil {
		tb.Fatal(err)
	}
	return dev
}

// legOp returns one size-byte command over dev, cycling through 64 slots.
func legOp(tb testing.TB, dev *initiator.Device, size int, write bool) func() {
	buf := make([]byte, size)
	perOp := uint64(len(buf) / dev.BlockSize())
	var i uint64
	return func() {
		lba := (i % 64) * perOp
		i++
		var err error
		if write {
			err = dev.WriteAt(buf, lba)
		} else {
			err = dev.ReadAt(buf, lba)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkLeg4K is the cost of one 4 KiB round trip over one unmodelled
// iSCSI leg (run with -cpu 1, as the repository benchmark pins one P).
func BenchmarkLeg4K(b *testing.B) { benchmarkLeg(b, 4096) }

// BenchmarkLeg64K is BenchmarkLeg4K at 64 KiB, where the payload copies
// rather than the per-command overhead dominate.
func BenchmarkLeg64K(b *testing.B) { benchmarkLeg(b, 64*1024) }

func benchmarkLeg(b *testing.B, size int) {
	for _, c := range []struct {
		name  string
		write bool
	}{{"write", true}, {"read", false}} {
		b.Run(c.name, func(b *testing.B) {
			op := legOp(b, legDevice(b), size, c.write)
			for i := 0; i < 256; i++ {
				op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

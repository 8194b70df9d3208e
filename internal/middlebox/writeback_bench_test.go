package middlebox

import (
	"net"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/target"
)

// gateDisk blocks WriteAt until the gate closes, so benchmarks and tests can
// build a deterministic pending-write queue depth.
type gateDisk struct {
	dev  blockdev.Device
	gate chan struct{}
}

func (g *gateDisk) BlockSize() int                    { return g.dev.BlockSize() }
func (g *gateDisk) Blocks() uint64                    { return g.dev.Blocks() }
func (g *gateDisk) ReadAt(p []byte, lba uint64) error { return g.dev.ReadAt(p, lba) }
func (g *gateDisk) Flush() error                      { return g.dev.Flush() }
func (g *gateDisk) Close() error                      { return g.dev.Close() }
func (g *gateDisk) WriteAt(p []byte, lba uint64) error {
	<-g.gate
	return g.dev.WriteAt(p, lba)
}

// benchWritebackDrain measures admitting depth writes against a gated
// backend (so the queue actually reaches that depth) and then draining. The
// ns/write metric divides by the queue depth; a dispatch index that scales
// should keep it flat as depth grows.
func benchWritebackDrain(b *testing.B, depth int, overlap bool) {
	b.ReportAllocs()
	buf := make([]byte, 512)
	var total time.Duration
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		disk, err := blockdev.NewMemDisk(512, uint64(depth)+16)
		if err != nil {
			b.Fatal(err)
		}
		gate := make(chan struct{})
		wb := NewWriteBack(&gateDisk{dev: disk, gate: gate}, NewJournal(0))
		b.StartTimer()
		start := time.Now()
		for i := 0; i < depth; i++ {
			lba := uint64(0)
			if !overlap {
				lba = uint64(i)
			}
			if err := wb.WriteAt(buf, lba); err != nil {
				b.Fatal(err)
			}
		}
		close(gate)
		if err := wb.Flush(); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		b.StopTimer()
		_ = wb.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*depth), "ns/write")
}

// Disjoint writes: every extent unique, maximal apply parallelism.
func BenchmarkWritebackDrain64(b *testing.B)   { benchWritebackDrain(b, 64, false) }
func BenchmarkWritebackDrain256(b *testing.B)  { benchWritebackDrain(b, 256, false) }
func BenchmarkWritebackDrain1024(b *testing.B) { benchWritebackDrain(b, 1024, false) }

// Fully overlapping writes: a pure serial dependency chain — the worst case
// for the old O(n²) scan, which re-walked the whole queue per dispatch.
func BenchmarkWritebackOverlapDrain64(b *testing.B)   { benchWritebackDrain(b, 64, true) }
func BenchmarkWritebackOverlapDrain256(b *testing.B)  { benchWritebackDrain(b, 256, true) }
func BenchmarkWritebackOverlapDrain1024(b *testing.B) { benchWritebackDrain(b, 1024, true) }

// BenchmarkWritebackCoalesce measures sequential adjacent 4 KiB writes with
// a slow backend; coalescing should collapse them into far fewer applies.
// The applies/write metric reports the measured merge factor.
func BenchmarkWritebackCoalesce(b *testing.B) {
	b.ReportAllocs()
	disk, err := blockdev.NewMemDisk(512, 4096)
	if err != nil {
		b.Fatal(err)
	}
	slow := blockdev.NewLatencyDisk(disk, blockdev.ServiceModel{PerRequest: 20 * time.Microsecond})
	counting := blockdev.NewCountingDisk(slow)
	wb := NewWriteBack(counting, NewJournal(0))
	defer wb.Close()
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wb.WriteAt(buf, uint64((i%512)*8)); err != nil {
			b.Fatal(err)
		}
	}
	if err := wb.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(counting.Writes())/float64(b.N), "applies/write")
}

// chainTestbed assembles VM — active relay — target over net.Pipe links with
// zero modelled interception cost, so the chain benchmarks and the allocation
// gate isolate code-path cost from the calibrated simulation charges. Unlike
// relayTestbed, both iSCSI servers execute quiet connections' commands inline
// in their read loops, as a zero-cost relay in front of a memory disk does in
// the benchmark's deployments (the production stormd backend keeps
// per-command goroutines; its disks model seek latency).
func chainTestbed(tb testing.TB) *initiator.Session {
	tb.Helper()
	disk, err := blockdev.NewMemDisk(512, 2048)
	if err != nil {
		tb.Fatal(err)
	}
	tsrv := target.NewServer(target.WithInlineExec())
	const iqn = "iqn.2016-04.edu.purdue.storm:chain"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		tb.Fatal(err)
	}
	relay, err := NewRelay(Config{
		Name: "mb1",
		Mode: Active,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := net.Pipe()
			go tsrv.Serve(newOneShotListener(s))
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:    CostModel{MTU: 8192, BatchSize: 65536},
	})
	if err != nil {
		tb.Fatal(err)
	}
	front, back := net.Pipe()
	go relay.Serve(newOneShotListener(back))
	tb.Cleanup(func() {
		relay.Close()
		tsrv.Close()
	})
	sess, err := initiator.Login(front, initiator.Config{
		InitiatorIQN: "iqn.vm1", TargetIQN: iqn,
	})
	if err != nil {
		tb.Fatalf("login through relay: %v", err)
	}
	tb.Cleanup(func() { _ = sess.Close() })
	return sess
}

// Full-chain benchmarks: VM initiator → active relay (journal + write-back)
// → backend target over in-process pipes, the exact per-command path the
// paper's Figures 9–10 measure.
func BenchmarkChainWrite4K(b *testing.B) { benchChainWrite(b, 4096, 64) }

func BenchmarkChainWrite64K(b *testing.B) { benchChainWrite(b, 64*1024, 8) }

// benchChainWrite writes size bytes per op, cycling over slots adjacent
// extents of that size.
func benchChainWrite(b *testing.B, size, slots int) {
	sess := chainTestbed(b)
	buf := make([]byte, size)
	blocks := size / 512
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sess.Write(uint64((i%slots)*blocks), buf, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainRead4K(b *testing.B) {
	sess := chainTestbed(b)
	buf := make([]byte, 4096)
	if err := sess.Write(0, buf, 512); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ReadInto(buf, 0, 8, 512); err != nil {
			b.Fatal(err)
		}
	}
}

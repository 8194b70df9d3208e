package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockdev"
)

func disks(t *testing.T, n int) []*blockdev.MemDisk {
	t.Helper()
	out := make([]*blockdev.MemDisk, n)
	for i := range out {
		d, err := blockdev.NewMemDisk(512, 256)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func dispatcher(t *testing.T, ds []*blockdev.MemDisk) *Dispatcher {
	t.Helper()
	var extras []NamedDevice
	for i, d := range ds[1:] {
		extras = append(extras, NamedDevice{Name: fmt.Sprintf("replica%d", i+1), Dev: d})
	}
	disp, err := New(ds[0], extras...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return disp
}

func TestWriteFansOutToAllReplicas(t *testing.T) {
	ds := disks(t, 3)
	disp := dispatcher(t, ds)
	want := bytes.Repeat([]byte{0xEF}, 1024)
	if err := disp.WriteAt(want, 10); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	for i, d := range ds {
		got := make([]byte, 1024)
		if err := d.ReadAt(got, 10); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica %d missing the write", i)
		}
	}
}

func TestReadsRoundRobin(t *testing.T) {
	ds := disks(t, 3)
	disp := dispatcher(t, ds)
	if err := disp.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 9; i++ {
		if err := disp.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range disp.States() {
		if s.Reads != 3 {
			t.Errorf("replica %s served %d reads, want 3 (round robin)", s.Name, s.Reads)
		}
	}
}

func TestReplicaFailureEvictsAndContinues(t *testing.T) {
	prim, err := blockdev.NewMemDisk(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	r2raw, _ := blockdev.NewMemDisk(512, 256)
	r2 := blockdev.NewFaultDisk(r2raw)
	r3, _ := blockdev.NewMemDisk(512, 256)
	disp, err := New(prim,
		NamedDevice{Name: "r2", Dev: r2},
		NamedDevice{Name: "r3", Dev: r3})
	if err != nil {
		t.Fatal(err)
	}

	want := bytes.Repeat([]byte{7}, 512)
	if err := disp.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// Fail r2 (the paper's injected error at the 60th second).
	r2.Trip(errors.New("iscsi connection closed"))
	// Reads keep succeeding; eventually r2 is hit and evicted.
	buf := make([]byte, 512)
	for i := 0; i < 6; i++ {
		if err := disp.ReadAt(buf, 0); err != nil {
			t.Fatalf("ReadAt during failure: %v", err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatal("read served stale data")
		}
	}
	var evicted []string
	for _, s := range disp.States() {
		if !s.Alive {
			evicted = append(evicted, s.Name)
		}
	}
	if len(evicted) != 1 || evicted[0] != "r2" {
		t.Errorf("evicted = %v, want [r2]", evicted)
	}
	// Writes continue on the remaining replicas.
	if err := disp.WriteAt(want, 5); err != nil {
		t.Errorf("WriteAt after eviction: %v", err)
	}
	states := disp.States()
	for _, s := range states {
		if s.Name == "r2" {
			if s.Alive || s.LastErr == nil {
				t.Errorf("r2 state = %+v", s)
			}
		}
	}
}

func TestAllReplicasFailed(t *testing.T) {
	raw, _ := blockdev.NewMemDisk(512, 16)
	fd := blockdev.NewFaultDisk(raw)
	disp, err := New(fd)
	if err != nil {
		t.Fatal(err)
	}
	fd.Trip(errors.New("gone"))
	if err := disp.ReadAt(make([]byte, 512), 0); !errors.Is(err, ErrAllReplicasFailed) {
		t.Errorf("ReadAt err = %v, want ErrAllReplicasFailed", err)
	}
	if err := disp.WriteAt(make([]byte, 512), 0); !errors.Is(err, ErrAllReplicasFailed) {
		t.Errorf("WriteAt err = %v, want ErrAllReplicasFailed", err)
	}
	if err := disp.Flush(); !errors.Is(err, ErrAllReplicasFailed) {
		t.Errorf("Flush err = %v, want ErrAllReplicasFailed", err)
	}
}

func TestGeometryMismatchRejected(t *testing.T) {
	a, _ := blockdev.NewMemDisk(512, 256)
	b, _ := blockdev.NewMemDisk(512, 128)
	if _, err := New(a, NamedDevice{Name: "b", Dev: b}); err == nil {
		t.Error("geometry mismatch: want error")
	}
	if _, err := New(nil); err == nil {
		t.Error("nil primary: want error")
	}
}

func TestConcurrentWritesStayConsistent(t *testing.T) {
	// Property: after concurrent writes to distinct blocks, all replicas
	// hold identical content.
	ds := disks(t, 3)
	disp := dispatcher(t, ds)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				data := bytes.Repeat([]byte{byte(g*32 + i)}, 512)
				if err := disp.WriteAt(data, uint64(g*16+i%16)); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Byte-identical replicas.
	for lba := uint64(0); lba < 128; lba++ {
		ref := make([]byte, 512)
		if err := ds[0].ReadAt(ref, lba); err != nil {
			t.Fatal(err)
		}
		for i, d := range ds[1:] {
			got := make([]byte, 512)
			if err := d.ReadAt(got, lba); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("replica %d diverges at lba %d", i+1, lba)
			}
		}
	}
}

func TestReplicaConsistencyProperty(t *testing.T) {
	// Property: any sequential op sequence leaves replicas identical and
	// reads always return the latest write.
	type op struct {
		LBA  uint8
		Fill byte
	}
	f := func(ops []op) bool {
		a, _ := blockdev.NewMemDisk(64, 64)
		b, _ := blockdev.NewMemDisk(64, 64)
		c, _ := blockdev.NewMemDisk(64, 64)
		disp, err := New(a, NamedDevice{Name: "b", Dev: b}, NamedDevice{Name: "c", Dev: c})
		if err != nil {
			return false
		}
		model := make(map[uint64]byte)
		for _, o := range ops {
			lba := uint64(o.LBA % 64)
			if err := disp.WriteAt(bytes.Repeat([]byte{o.Fill}, 64), lba); err != nil {
				return false
			}
			model[lba] = o.Fill
		}
		buf := make([]byte, 64)
		for lba, fill := range model {
			// Each read may hit a different replica; all must agree.
			for i := 0; i < 3; i++ {
				if err := disp.ReadAt(buf, lba); err != nil {
					return false
				}
				if buf[0] != fill {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// gateDev wraps a device so a test can hold a write in flight and observe
// whether Flush overlaps it.
type gateDev struct {
	blockdev.Device
	started          chan struct{}
	release          chan struct{}
	inFlight         atomic.Int32
	flushDuringWrite atomic.Bool
}

func (d *gateDev) WriteAt(p []byte, lba uint64) error {
	d.inFlight.Add(1)
	select {
	case d.started <- struct{}{}:
	default:
	}
	<-d.release
	err := d.Device.WriteAt(p, lba)
	d.inFlight.Add(-1)
	return err
}

func (d *gateDev) Flush() error {
	if d.inFlight.Load() != 0 {
		d.flushDuringWrite.Store(true)
	}
	return d.Device.Flush()
}

// TestFlushSerializesWithWrites is the regression test for the missing
// write lock in Flush: a sync racing an in-flight fan-out must not reach a
// replica before the write lands on it.
func TestFlushSerializesWithWrites(t *testing.T) {
	ds := disks(t, 2)
	gate := &gateDev{Device: ds[1], started: make(chan struct{}, 1), release: make(chan struct{})}
	disp, err := New(ds[0], NamedDevice{Name: "gated", Dev: gate})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := disp.WriteAt(make([]byte, 512), 0); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
	}()
	<-gate.started
	go func() {
		defer wg.Done()
		if err := disp.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
	}()
	// Give the Flush goroutine time to hit the write lock (with the bug it
	// instead reaches the gated replica while the write is parked there).
	time.Sleep(5 * time.Millisecond)
	close(gate.release)
	wg.Wait()
	if gate.flushDuringWrite.Load() {
		t.Fatal("Flush reached a replica while a fan-out write was still in flight")
	}
}

// TestConcurrentFlushAndWrites lets -race arbitrate: writers, flushers, and
// closers all exercising the dispatcher at once.
func TestConcurrentFlushAndWrites(t *testing.T) {
	ds := disks(t, 3)
	disp := dispatcher(t, ds)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			p := bytes.Repeat([]byte{byte(g + 1)}, 512)
			for i := 0; i < 50; i++ {
				if err := disp.WriteAt(p, uint64(g*8+i%8)); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := disp.Flush(); err != nil {
					t.Errorf("Flush: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

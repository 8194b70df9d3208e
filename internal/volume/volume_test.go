package volume

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/target"
)

// newService builds a volume service on a tiny fabric.
func newService(t *testing.T, cfg Config) (*Service, *netsim.Endpoint) {
	t.Helper()
	model := netsim.Model{MTU: 8192, Bandwidth: 1 << 33,
		Latency: map[netsim.HopKind]time.Duration{}, PerPacket: map[netsim.HopKind]time.Duration{}}
	fabric := netsim.NewFabric(model)
	sh, err := fabric.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := fabric.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sh.NewEndpoint("tgtd"), cfg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc, ch.NewEndpoint("client")
}

func TestCreateGetListDelete(t *testing.T) {
	svc, _ := newService(t, Config{})
	v, err := svc.Create("data", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if v.ID == "" || v.IQN == "" || v.Status != StatusAvailable {
		t.Errorf("volume = %+v", v)
	}
	got, err := svc.Get(v.ID)
	if err != nil || got.Name != "data" {
		t.Errorf("Get = %+v, %v", got, err)
	}
	if len(svc.List()) != 1 {
		t.Errorf("List = %d", len(svc.List()))
	}
	if err := svc.Delete(v.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := svc.Get(v.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete err = %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	svc, _ := newService(t, Config{})
	if _, err := svc.Create("x", 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := svc.Create("x", 777); err == nil {
		t.Error("unaligned size accepted")
	}
}

func TestAttachmentLifecycle(t *testing.T) {
	svc, _ := newService(t, Config{})
	v, err := svc.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.MarkAttached(v.ID, "vm1"); err != nil {
		t.Fatalf("MarkAttached: %v", err)
	}
	if v.Status != StatusAttached || v.AttachedTo != "vm1" {
		t.Errorf("volume = %+v", v)
	}
	if err := svc.MarkAttached(v.ID, "vm2"); !errors.Is(err, ErrInUse) {
		t.Errorf("double attach err = %v", err)
	}
	if err := svc.Delete(v.ID); !errors.Is(err, ErrInUse) {
		t.Errorf("Delete while attached err = %v", err)
	}
	if err := svc.MarkDetached(v.ID); err != nil {
		t.Fatalf("MarkDetached: %v", err)
	}
	if err := svc.MarkDetached(v.ID); !errors.Is(err, ErrNotAttached) {
		t.Errorf("double detach err = %v", err)
	}
	if err := svc.MarkAttached("nope", "vm"); !errors.Is(err, ErrNotFound) {
		t.Errorf("attach unknown err = %v", err)
	}
}

func TestVolumeServedOverISCSI(t *testing.T) {
	var hooked bool
	svc, client := newService(t, Config{
		LoginHook: func(target.LoginInfo) { hooked = true },
	})
	v, err := svc.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.DialAddr(svc.TargetAddr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	sess, err := initiator.Login(conn, initiator.Config{InitiatorIQN: "iqn.c", TargetIQN: v.IQN})
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	defer sess.Close()
	dev, err := initiator.OpenDevice(sess)
	if err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}
	want := bytes.Repeat([]byte{0xCD}, 512)
	if err := dev.WriteAt(want, 7); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	direct := make([]byte, 512)
	if err := v.Device().ReadAt(direct, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, want) {
		t.Error("data did not reach the volume's backing store")
	}
	if !hooked {
		t.Error("login hook never fired")
	}
}

func TestFaultInjection(t *testing.T) {
	svc, _ := newService(t, Config{})
	v, err := svc.Create("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	v.InjectFault(wantErr)
	if err := v.Device().ReadAt(make([]byte, 512), 0); !errors.Is(err, wantErr) {
		t.Errorf("ReadAt after fault err = %v", err)
	}
}

func TestDiskModelApplied(t *testing.T) {
	svc, _ := newService(t, Config{
		DiskRead: blockdev.ServiceModel{PerRequest: 20 * time.Millisecond},
	})
	v, err := svc.Create("slow", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := v.Device().ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("read took %v, want >= ~20ms from the disk model", el)
	}
	// Writes are not slowed (no write model given).
	start = time.Now()
	if err := v.Device().WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Errorf("write took %v, want fast", el)
	}
}

// TestModelledDiskCommandsOverlapOnOneConnection: a service with a modelled
// medium must keep one goroutine per command — the commands of one
// connection wait out their service times side by side. (Only an unmodelled
// service runs a quiet connection's commands in its read loop, where a
// command that waited would hold up the ones behind it;
// TestLeg4KAllocBudget pins that side.)
func TestModelledDiskCommandsOverlapOnOneConnection(t *testing.T) {
	const service = 50 * time.Millisecond
	svc, client := newService(t, Config{DiskRead: blockdev.ServiceModel{PerRequest: service}})
	v, err := svc.Create("slow", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.DialAddr(svc.TargetAddr())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := initiator.Login(conn, initiator.Config{InitiatorIQN: "iqn.c", TargetIQN: v.IQN})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const readers = 4
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sess.ReadInto(make([]byte, 512), uint64(i), 1, 512); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	// All four side by side take one service time; a read loop that ran
	// the first one itself would need two.
	if el := time.Since(start); el < service || el >= 2*service {
		t.Errorf("%d concurrent reads of %v each took %v: want them overlapped, not queued", readers, service, el)
	}
}

func TestSnapshot(t *testing.T) {
	svc, client := newService(t, Config{})
	v, err := svc.Create("orig", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 512)
	if err := v.Device().WriteAt(want, 5); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Snapshot(v.ID, "orig-snap")
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.SizeBytes != v.SizeBytes || snap.ID == v.ID || snap.IQN == v.IQN {
		t.Errorf("snapshot = %+v", snap)
	}
	// The snapshot holds the data...
	got := make([]byte, 512)
	if err := snap.Device().ReadAt(got, 5); err != nil || !bytes.Equal(got, want) {
		t.Errorf("snapshot data: %v", err)
	}
	// ...and is independent of later writes to the original.
	if err := v.Device().WriteAt(bytes.Repeat([]byte{0xFF}, 512), 5); err != nil {
		t.Fatal(err)
	}
	if err := snap.Device().ReadAt(got, 5); err != nil || !bytes.Equal(got, want) {
		t.Error("snapshot not isolated from the original")
	}
	// Snapshots are attachable over iSCSI like any other volume.
	conn, err := client.DialAddr(svc.TargetAddr())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := initiator.Login(conn, initiator.Config{InitiatorIQN: "iqn.c", TargetIQN: snap.IQN})
	if err != nil {
		t.Fatalf("Login to snapshot: %v", err)
	}
	defer sess.Close()
	data, err := sess.Read(5, 1, 512)
	if err != nil || !bytes.Equal(data, want) {
		t.Errorf("iSCSI read of snapshot: %v", err)
	}
	if _, err := svc.Snapshot("nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Snapshot of unknown err = %v", err)
	}
}

package storm_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	storm "repro"
)

const keyHex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// fastCloud builds a cloud with negligible network costs for API tests.
func fastCloud(t *testing.T) (*storm.Cloud, *storm.Platform) {
	t.Helper()
	c, err := storm.NewCloud(storm.CloudConfig{ComputeHosts: 4})
	if err != nil {
		t.Fatalf("NewCloud: %v", err)
	}
	t.Cleanup(c.Close)
	return c, storm.NewPlatform(c)
}

func TestPublicAPIEndToEnd(t *testing.T) {
	c, p := fastCloud(t)
	if _, err := c.LaunchVM("vm1", ""); err != nil {
		t.Fatal(err)
	}
	vol, err := c.Volumes.Create("data", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := storm.ParsePolicy([]byte(`{
	  "tenant": "acme",
	  "middleboxes": [
	    {"name": "mon", "type": "access-monitor", "params": {"watch": "/secrets"}},
	    {"name": "enc", "type": "encryption", "params": {"key": "` + keyHex + `"}}
	  ],
	  "volumes": [{"vm": "vm1", "volume": "` + vol.ID + `", "chain": ["mon", "enc"]}]
	}`))
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	dep, err := p.Apply(pol)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}

	// Format through the chain, store a secret, verify the monitor and
	// the at-rest encryption.
	av := dep.Volumes["vm1/"+vol.ID]
	fs, err := storm.Mkfs(av.Device, storm.FSOptions{})
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	if err := fs.MkdirAll("/secrets"); err != nil {
		t.Fatal(err)
	}
	secret := []byte("facade-level secret")
	if err := fs.WriteFile("/secrets/f", secret); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/secrets/f")
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}

	mon := dep.Monitors["mon"]
	var alerted bool
	for _, a := range mon.Alerts() {
		if strings.Contains(a.Event.Path, "/secrets/f") {
			alerted = true
		}
	}
	if !alerted {
		t.Error("monitor missed the watched write")
	}

	raw := make([]byte, 4096)
	leaked := false
	for lba := uint64(0); lba < vol.Device().Blocks(); lba += 8 {
		if err := vol.Device().ReadAt(raw, lba); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, secret) {
			leaked = true
		}
	}
	if leaked {
		t.Error("plaintext at rest")
	}
	if err := p.Teardown("acme"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicWorkloads(t *testing.T) {
	c, _ := fastCloud(t)
	vm, err := c.LaunchVM("vm1", "")
	if err != nil {
		t.Fatal(err)
	}
	vol, err := c.Volumes.Create("bench", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := c.AttachVolume(vm, vol.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	fio, err := storm.RunFio(storm.FioConfig{Dev: dev, RequestSize: 4096, Ops: 50, ReadFraction: 0.5})
	if err != nil || fio.Ops != 50 {
		t.Fatalf("RunFio = %+v, %v", fio, err)
	}
	db, err := storm.OpenDB(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	oltp, err := storm.RunOLTP(storm.OLTPConfig{DB: db, Rows: 50, Threads: 2, Duration: 200 * time.Millisecond})
	if err != nil || oltp.Transactions == 0 {
		t.Fatalf("RunOLTP = %+v, %v", oltp, err)
	}
	if _, err := storm.Mkfs(dev, storm.FSOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicConstantsAndTypes(t *testing.T) {
	// The policy constants round-trip through validation.
	pol := &storm.Policy{
		Tenant: "t",
		MiddleBoxes: []storm.MiddleBoxSpec{
			{Name: "f", Type: storm.TypeForward},
			{Name: "r", Type: storm.TypeReplication, Mode: storm.ModePassive,
				Params: map[string]string{"replicas": "2"}},
		},
		Volumes: []storm.VolumeBinding{{VM: "vm", Volume: "vol", Chain: []string{"f", "r"}}},
	}
	if err := pol.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

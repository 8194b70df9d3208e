// Command objectstorage demonstrates the paper's Section II claim that
// StorM "is equally applicable to other storage systems such as object
// storage": a Swift-like object gateway performs all its I/O through a
// StorM-attached volume, so every PUT and GET transparently traverses the
// tenant's monitoring + encryption middle-box chain.
package main

import (
	"bytes"
	"fmt"
	"log"

	storm "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cloud, err := storm.NewCloud(storm.CloudConfig{})
	if err != nil {
		return err
	}
	defer cloud.Close()
	platform := storm.NewPlatform(cloud)

	if _, err := cloud.LaunchVM("gateway-vm", ""); err != nil {
		return err
	}
	vol, err := cloud.Volumes.Create("object-pool", 64<<20)
	if err != nil {
		return err
	}
	pol := &storm.Policy{
		Tenant: "acme",
		MiddleBoxes: []storm.MiddleBoxSpec{
			{Name: "mon", Type: storm.TypeMonitor, Params: map[string]string{"watch": "/objects"}},
			{Name: "enc", Type: storm.TypeEncryption, Params: map[string]string{
				"key": "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			}},
		},
		Volumes: []storm.VolumeBinding{{VM: "gateway-vm", Volume: vol.ID, Chain: []string{"mon", "enc"}}},
	}
	dep, err := platform.Apply(pol)
	if err != nil {
		return err
	}

	// The object gateway formats its pool volume through the chain and
	// serves buckets/objects from it.
	av := dep.Volumes["gateway-vm/"+vol.ID]
	fs, err := storm.Mkfs(av.Device, storm.FSOptions{})
	if err != nil {
		return err
	}
	store, err := storm.NewObjectStore(fs)
	if err != nil {
		return err
	}
	if err := store.CreateBucket("invoices"); err != nil {
		return err
	}
	payload := []byte("INVOICE #4711 -- total: $1,337.00")
	etag, err := store.Put("invoices", "2016/q2/4711.txt", payload)
	if err != nil {
		return err
	}
	fmt.Printf("PUT invoices/2016/q2/4711.txt  etag=%s…\n", etag[:16])

	got, _, err := store.Get("invoices", "2016/q2/4711.txt")
	if err != nil {
		return err
	}
	fmt.Printf("GET returns: %q\n", got)
	objs, err := store.List("invoices", "2016/")
	if err != nil {
		return err
	}
	for _, o := range objs {
		fmt.Printf("LIST: %-22s %4d bytes  etag=%s…\n", o.Key, o.Size, o.ETag[:16])
	}

	// The monitor (first box in the chain) observed the object write as a
	// file-level operation.
	var monitored bool
	for _, a := range dep.Monitors["mon"].Alerts() {
		if bytes.Contains([]byte(a.Event.Path), []byte("4711")) {
			fmt.Printf("monitor saw: %s\n", a.Event.String())
			monitored = true
			break
		}
	}
	if !monitored {
		return fmt.Errorf("monitor missed the object write")
	}

	// And the pool volume holds ciphertext only.
	raw := vol.Device()
	buf := make([]byte, 4096)
	for lba := uint64(0); lba < raw.Blocks(); lba += 8 {
		if err := raw.ReadAt(buf, lba); err != nil {
			return err
		}
		if bytes.Contains(buf, payload) {
			return fmt.Errorf("plaintext object data at rest")
		}
	}
	fmt.Println("object data is encrypted at rest — the chain applies to object storage unchanged")
	return platform.Teardown("acme")
}

package minidb

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	dev, err := blockdev.NewMemDisk(512, 8192) // 4 MiB
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dev, 4096)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestOpenValidation(t *testing.T) {
	dev, _ := blockdev.NewMemDisk(512, 8192)
	if _, err := Open(dev, 1000); err == nil {
		t.Error("unaligned page size: want error")
	}
	if _, err := Open(dev, 0); err == nil {
		t.Error("zero page size: want error")
	}
	tiny, _ := blockdev.NewMemDisk(512, 8)
	if _, err := Open(tiny, 4096); err == nil {
		t.Error("tiny device: want error")
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	db := newDB(t)
	want := []byte("hello row")
	if err := db.Put(1, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := db.Get(1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Get = %q, want %q", got, want)
	}
}

func TestGetMissing(t *testing.T) {
	db := newDB(t)
	if _, err := db.Get(42); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("Get(42) err = %v, want ErrRowNotFound", err)
	}
	if _, err := db.Get(0); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("Get(0) err = %v, want ErrRowNotFound", err)
	}
	if _, err := db.Get(db.capacity + 1); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("Get(beyond) err = %v, want ErrRowNotFound", err)
	}
}

func TestDelete(t *testing.T) {
	db := newDB(t)
	const id = 1
	if err := db.Put(id, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := db.Get(id); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("Get after Delete err = %v", err)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	db := newDB(t)
	big := make([]byte, MaxPayload+1)
	if err := db.Put(1, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Put(big) err = %v", err)
	}
}

func TestRangeScanSkipsHoles(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 10; i++ {
		if err := db.Put(uint64(i+1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(5); err != nil {
		t.Fatal(err)
	}
	rows, err := db.RangeScan(1, 10)
	if err != nil {
		t.Fatalf("RangeScan: %v", err)
	}
	if len(rows) != 9 {
		t.Errorf("RangeScan returned %d rows, want 9", len(rows))
	}
}

func TestPutPreload(t *testing.T) {
	db := newDB(t)
	if err := db.Put(100, []byte("row100")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, err := db.Get(100); err != nil || string(got) != "row100" {
		t.Errorf("Get(100) = %q, %v", got, err)
	}
}

// TestUpdate: rewriting a row with Put grows and shrinks it in place (stale
// bytes cleared).
func TestUpdate(t *testing.T) {
	db := newDB(t)
	for _, want := range []string{"v1", "v2-longer", "v3"} {
		if err := db.Put(1, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := db.Get(1); err != nil || string(got) != want {
			t.Errorf("after Put(%q) = %q, %v", want, got, err)
		}
	}
}

func TestRowsSpanPages(t *testing.T) {
	db := newDB(t)
	perPage := 4096 / RowSize
	// Fill two pages worth.
	for i := 0; i < perPage*2; i++ {
		if err := db.Put(uint64(i+1), bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= perPage*2; i++ {
		got, err := db.Get(uint64(i))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if got[0] != byte(i-1) {
			t.Errorf("row %d = %d", i, got[0])
		}
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 64; i++ {
		if err := db.Put(uint64(i+1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := uint64(g*8 + i%8 + 1)
				if err := db.Put(id, []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := db.Get(id); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDBModelProperty(t *testing.T) {
	type op struct {
		ID   uint8
		Data []byte
		Del  bool
	}
	f := func(ops []op) bool {
		dev, err := blockdev.NewMemDisk(512, 4096)
		if err != nil {
			return false
		}
		db, err := Open(dev, 4096)
		if err != nil {
			return false
		}
		model := make(map[uint64][]byte)
		for _, o := range ops {
			id := uint64(o.ID%64 + 1)
			if o.Del {
				if err := db.Delete(id); err != nil {
					return false
				}
				delete(model, id)
				continue
			}
			data := o.Data
			if len(data) > MaxPayload {
				data = data[:MaxPayload]
			}
			if err := db.Put(id, data); err != nil {
				return false
			}
			model[id] = append([]byte(nil), data...)
		}
		for id, want := range model {
			got, err := db.Get(id)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
	"repro/internal/extfs"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	disk, err := blockdev.NewMemDisk(512, 65536)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mkfs(disk, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(fs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestBucketLifecycle(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("photos"); err != nil {
		t.Fatalf("CreateBucket: %v", err)
	}
	if err := s.CreateBucket("photos"); !errors.Is(err, ErrBucketExists) {
		t.Errorf("duplicate bucket err = %v", err)
	}
}

func TestPutGetDelete(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	want := []byte("object payload with some bytes")
	etag, err := s.Put("b", "reports/q3.txt", want)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(etag) != 64 {
		t.Errorf("etag = %q", etag)
	}
	got, gotTag, err := s.Get("b", "reports/q3.txt")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, want) || gotTag != etag {
		t.Error("Get returned wrong content or etag")
	}
	info, err := s.Head("b", "reports/q3.txt")
	if err != nil || info.Size != uint64(len(want)) || info.ETag != etag {
		t.Errorf("Head = %+v, %v", info, err)
	}
	if _, _, err := s.Get("b", "reports/q4.txt"); !errors.Is(err, ErrNoObject) {
		t.Errorf("Get of a missing key err = %v", err)
	}
}

func TestBucketRequiredForPut(t *testing.T) {
	s := newStore(t)
	if _, err := s.Put("ghost", "k", []byte("x")); !errors.Is(err, ErrNoBucket) {
		t.Errorf("Put to missing bucket err = %v", err)
	}
	if _, _, err := s.Get("ghost", "k"); !errors.Is(err, ErrNoBucket) {
		t.Errorf("Get from missing bucket err = %v", err)
	}
	if _, err := s.List("ghost", ""); !errors.Is(err, ErrNoBucket) {
		t.Errorf("List of missing bucket err = %v", err)
	}
}

func TestOverwriteChangesETag(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	tag1, err := s.Put("b", "k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	tag2, err := s.Put("b", "k", []byte("v2 longer"))
	if err != nil {
		t.Fatal(err)
	}
	if tag1 == tag2 {
		t.Error("etag unchanged across overwrite")
	}
	got, _, err := s.Get("b", "k")
	if err != nil || string(got) != "v2 longer" {
		t.Errorf("Get = %q, %v", got, err)
	}
}

func TestListWithPrefix(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"logs/a", "logs/b", "data/x"} {
		if _, err := s.Put("b", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.List("b", "logs/")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(got) != 2 || got[0].Key != "logs/a" || got[1].Key != "logs/b" {
		t.Errorf("List = %+v", got)
	}
	all, err := s.List("b", "")
	if err != nil || len(all) != 3 {
		t.Errorf("List all = %d, %v", len(all), err)
	}
}

func TestNameValidation(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("a/b"); !errors.Is(err, ErrBadName) {
		t.Errorf("bucket with slash err = %v", err)
	}
	if err := s.CreateBucket(""); !errors.Is(err, ErrBadName) {
		t.Errorf("empty bucket err = %v", err)
	}
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", "", []byte("x")); !errors.Is(err, ErrBadName) {
		t.Errorf("empty key err = %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Flip a content byte behind the store's back.
	if err := s.fs.WriteAt(root+"/b/k", []byte{'X'}, 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("b", "k"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get of corrupted object err = %v", err)
	}
}

// TestConcurrentPutGetDelete hammers the store from many goroutines at
// once — disjoint per-worker keys, overwritten in place, round-trip exactly, while a contended
// shared key sees only whole objects (a valid generation or ErrNoObject,
// never torn content or a failed etag check). Run under -race this also
// proves the gateway path over the shared file system mutex is sound.
func TestConcurrentPutGetDelete(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	const workers, iters = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("w%d/obj-%d", w, i%5)
				want := bytes.Repeat([]byte{byte(w*31 + i)}, 128+i)
				etag, err := s.Put("b", key, want)
				if err != nil {
					errs <- fmt.Errorf("worker %d put %s: %w", w, key, err)
					return
				}
				got, gotTag, err := s.Get("b", key)
				if err != nil || gotTag != etag || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d get %s: %v (content match %v)", w, key, err, bytes.Equal(got, want))
					return
				}
			}
		}(w)
	}
	// Contended writers and readers on one shared key.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					payload := bytes.Repeat([]byte{byte(i)}, 64+w)
					if _, err := s.Put("b", "shared", payload); err != nil {
						errs <- fmt.Errorf("shared put: %w", err)
						return
					}
				} else {
					_, _, err := s.Get("b", "shared")
					if err != nil && !errors.Is(err, ErrNoObject) {
						errs <- fmt.Errorf("shared get: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCorruptionInjectedUnderneath rots stored bytes at several offsets —
// the etag header, the first content byte, and the object's tail — and
// verifies every read detects the damage instead of returning it.
func TestCorruptionInjectedUnderneath(t *testing.T) {
	s := newStore(t)
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("integrity"), 100)
	for _, tc := range []struct {
		name   string
		offset uint64
	}{
		{"etag header", 3},
		{"first content byte", 64},
		{"content tail", 64 + uint64(len(payload)) - 1},
	} {
		key := "victim-" + tc.name
		if _, err := s.Put("b", key, payload); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 1)
		path := root + "/b/" + url.PathEscape(key)
		if err := s.fs.ReadAt(path, raw, tc.offset); err != nil {
			t.Fatalf("%s: read byte: %v", tc.name, err)
		}
		if err := s.fs.WriteAt(path, []byte{raw[0] ^ 0xFF}, tc.offset); err != nil {
			t.Fatalf("%s: flip byte: %v", tc.name, err)
		}
		if _, _, err := s.Get("b", key); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Get after corruption err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestObjectModelProperty(t *testing.T) {
	type op struct {
		Key  uint8
		Data []byte
	}
	f := func(ops []op) bool {
		s := newStore(&testing.T{})
		if err := s.CreateBucket("b"); err != nil {
			return false
		}
		model := make(map[string][]byte)
		for _, o := range ops {
			key := fmt.Sprintf("key-%d", o.Key%10)
			data := o.Data
			if len(data) > 8192 {
				data = data[:8192]
			}
			if _, err := s.Put("b", key, data); err != nil {
				return false
			}
			model[key] = append([]byte(nil), data...)
		}
		for key, want := range model {
			got, _, err := s.Get("b", key)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		list, err := s.List("b", "")
		if err != nil || len(list) != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

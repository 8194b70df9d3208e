package bufpool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{1, 0}, {511, 0}, {512, 0}, {513, 1}, {1024, 1}, {1025, 2},
		{4096, 3}, {1 << 22, maxClassBits - minClassBits}, {1<<22 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetLenAndReuse(t *testing.T) {
	b := Get(1000)
	if len(b.B) != 1000 {
		t.Fatalf("len = %d, want 1000", len(b.B))
	}
	if cap(b.B) != 1024 {
		t.Fatalf("cap = %d, want class size 1024", cap(b.B))
	}
	b.B[0] = 0xAB
	b.Release()
	// The next same-class Get should reuse the buffer (single goroutine,
	// no GC in between — sync.Pool keeps it in the P-local cache).
	b2 := Get(600)
	if len(b2.B) != 600 {
		t.Fatalf("len = %d, want 600", len(b2.B))
	}
	b2.Release()
}

func TestGetZeroed(t *testing.T) {
	b := Get(2048)
	for i := range b.B {
		b.B[i] = 0xFF
	}
	b.Release()
	z := GetZeroed(2048)
	defer z.Release()
	for i, v := range z.B {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
}

func TestOversizedAndZero(t *testing.T) {
	big := Get(1<<22 + 1)
	if len(big.B) != 1<<22+1 || big.class != -1 {
		t.Fatalf("oversized: len=%d class=%d", len(big.B), big.class)
	}
	big.Release() // must not panic or pollute pools

	empty := Get(0)
	if empty.B != nil {
		t.Fatal("Get(0) should carry no bytes")
	}
	empty.Release()

	var nilBuf *Buf
	nilBuf.Release() // no-op
}

// TestConcurrentGetRelease exercises the pool under -race.
func TestConcurrentGetRelease(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{512, 4096, 65536, 300000}
			for i := 0; i < 2000; i++ {
				b := Get(sizes[(g+i)%len(sizes)])
				b.B[0] = byte(g)
				b.B[len(b.B)-1] = byte(i)
				b.Release()
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkGetRelease4K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Get(4096).Release()
	}
}

func BenchmarkGetRelease64K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Get(64 * 1024).Release()
	}
}

package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// kernelOK records whether this CPU selected the kernel, before any test
// flips useKernel.
var kernelOK = useKernel

// forEachPath runs f once on the assembly kernel (skipped where the CPU
// lacks it) and once on crypto/cipher's CTR stream, flipping the package
// switch. Tests that call it must not run in parallel.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(saved bool) { useKernel = saved }(useKernel)
	for _, path := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"fallback", false}} {
		t.Run(path.name, func(t *testing.T) {
			if path.kernel && !kernelOK {
				t.Skip("this CPU has no VAES/AVX2 kernel")
			}
			useKernel = path.kernel
			f(t)
		})
	}
}

// kernelCipher returns a cipher whose round keys are expanded for the
// kernel, or skips the test where the CPU lacks it.
func kernelCipher(t testing.TB, key []byte) *Cipher {
	t.Helper()
	if !kernelOK {
		t.Skip("this CPU has no VAES/AVX2 kernel")
	}
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKernelSelected: on amd64 the kernel is selected exactly when the CPU
// reports AES-NI, AVX, AVX2 and VAES.
func TestKernelSelected(t *testing.T) {
	t.Logf("GOARCH %s: AES-CTR kernel selected: %v", runtime.GOARCH, kernelOK)
	if runtime.GOARCH != "amd64" {
		if kernelOK {
			t.Error("kernel selected off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to cross-check: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		have := strings.Fields(flags)
		want := true
		for _, f := range []string{"aes", "avx", "avx2", "vaes"} {
			want = want && slices.Contains(have, f)
		}
		if kernelOK != want {
			t.Errorf("kernel selected %v, but /proc/cpuinfo flags say %v", kernelOK, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// TestKernelNISTVectors anchors the kernel and its key schedule on NIST SP
// 800-38A F.5.5 (CTR-AES256.Encrypt), independently of crypto/cipher.
func TestKernelNISTVectors(t *testing.T) {
	key := []byte{
		0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77, 0x81,
		0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3, 0x09, 0x14, 0xdf, 0xf4,
	}
	counter := []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff}
	plain := []byte{
		0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a,
		0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51,
		0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef,
		0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
	}
	want := []byte{
		0x60, 0x1e, 0xc3, 0x13, 0x77, 0x57, 0x89, 0xa5, 0xb7, 0xa7, 0xf5, 0x04, 0xbb, 0xf3, 0xd2, 0x28,
		0xf4, 0x43, 0xe3, 0xca, 0x4d, 0x62, 0xb5, 0x9a, 0xca, 0x84, 0xe9, 0x90, 0xca, 0xca, 0xf5, 0xc5,
		0x2b, 0x09, 0x30, 0xda, 0xa2, 0x3d, 0xe9, 0x4c, 0xe8, 0x70, 0x17, 0xba, 0x2d, 0x84, 0x98, 0x8d,
		0xdf, 0xc9, 0xc5, 0x8d, 0xb6, 0x7a, 0xad, 0xa6, 0x13, 0xc2, 0xdd, 0x08, 0x45, 0x79, 0x41, 0xa6,
	}
	c := kernelCipher(t, key)
	hi, lo := binary.BigEndian.Uint64(counter[:8]), binary.BigEndian.Uint64(counter[8:])
	// Every length from one byte to the four blocks: the 2-block and 1-block
	// steps and the partial final block.
	for n := 1; n <= len(plain); n++ {
		got := make([]byte, n)
		c.xorKernel(got, plain[:n], hi, lo)
		if !bytes.Equal(got, want[:n]) {
			t.Fatalf("%d bytes:\ngot  %x\nwant %x", n, got, want[:n])
		}
	}
}

// checkPaths requires the kernel, crypto/cipher's CTR stream and the
// block-at-a-time reference to agree on data from counter hi:lo, out of
// place and in place.
func checkPaths(t *testing.T, c *Cipher, key, data []byte, hi, lo uint64) {
	t.Helper()
	var base [aes.BlockSize]byte
	binary.BigEndian.PutUint64(base[:8], hi)
	binary.BigEndian.PutUint64(base[8:], lo)
	want := referenceTransform(t, key, base, data, 0, 512)

	stream := make([]byte, len(data))
	c.xorStream(stream, data, hi, lo)
	if !bytes.Equal(stream, want) {
		t.Fatalf("%d bytes from %#x:%#x: crypto/cipher differs from the reference", len(data), hi, lo)
	}
	// Out of place, into a buffer with guard bytes on both sides.
	guarded := bytes.Repeat([]byte{0xA5}, len(data)+2*aes.BlockSize)
	out := guarded[aes.BlockSize : aes.BlockSize+len(data)]
	c.xorKernel(out, data, hi, lo)
	if !bytes.Equal(out, want) {
		t.Fatalf("%d bytes from %#x:%#x: kernel (out of place) differs from the reference", len(data), hi, lo)
	}
	for i, b := range slices.Concat(guarded[:aes.BlockSize], guarded[aes.BlockSize+len(data):]) {
		if b != 0xA5 {
			t.Fatalf("%d bytes: kernel wrote guard byte %d", len(data), i)
		}
	}
	inPlace := append([]byte(nil), data...)
	c.xorKernel(inPlace, inPlace, hi, lo)
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("%d bytes from %#x:%#x: kernel (in place) differs from the reference", len(data), hi, lo)
	}
}

// TestKernelAgreesAcrossLengths: every block count the tails can see, the
// two request sizes the workloads use, and partial final blocks.
func TestKernelAgreesAcrossLengths(t *testing.T) {
	key := testKey()
	c := kernelCipher(t, key)
	rng := rand.New(rand.NewSource(1))
	var sizes []int
	for blocks := 1; blocks <= 40; blocks++ {
		sizes = append(sizes, blocks*aes.BlockSize)
	}
	sizes = append(sizes, 1, 15, 17, 33*aes.BlockSize+7, 4<<10, 4<<10+9, 64<<10)
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		checkPaths(t, c, key, data, rng.Uint64(), rng.Uint64()>>1)
	}
}

// TestKernelLowWordWrap: the low word wraps at every block offset 0-17 into
// a run (the 16-block loop, its 2-block and 1-block tails, and a partial
// block all see the carry), and the whole 128-bit counter wraps.
func TestKernelLowWordWrap(t *testing.T) {
	key := testKey()
	c := kernelCipher(t, key)
	data := make([]byte, 40*aes.BlockSize+5)
	rand.New(rand.NewSource(2)).Read(data)
	for _, hi := range []uint64{7, ^uint64(0)} {
		for k := uint64(0); k <= 17; k++ {
			t.Run(fmt.Sprintf("hi=%#x/wrap_after_%d", hi, k), func(t *testing.T) {
				checkPaths(t, c, key, data, hi, -k)
			})
		}
	}
}

// TestKernelRandomKeysAndCounters: the kernel and crypto/cipher agree under
// random keys, counters and lengths.
func TestKernelRandomKeysAndCounters(t *testing.T) {
	if !kernelOK {
		t.Skip("this CPU has no VAES/AVX2 kernel")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		key := make([]byte, KeySize)
		rng.Read(key)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, rng.Intn(3000))
		rng.Read(data)
		hi, lo := rng.Uint64(), rng.Uint64()
		if i%4 == 0 {
			lo = -uint64(rng.Intn(len(data)/aes.BlockSize + 2))
		}
		want := make([]byte, len(data))
		c.xorStream(want, data, hi, lo)
		got := make([]byte, len(data))
		c.xorKernel(got, data, hi, lo)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x, %d bytes from %#x:%#x: kernel differs from crypto/cipher", key, len(data), hi, lo)
		}
	}
}

// FuzzTransform: for any key, sector, sector size and run, the kernel's
// output equals crypto/cipher's.
func FuzzTransform(f *testing.F) {
	f.Add(testKey(), uint64(100), false, bytes.Repeat([]byte("seed"), 128))
	f.Add(make([]byte, KeySize), ^uint64(0), true, make([]byte, 4096+3))
	f.Add([]byte("short key"), uint64(1)<<60, false, []byte{1})
	f.Fuzz(func(t *testing.T, key []byte, sector uint64, big bool, data []byte) {
		if len(data) > 128<<10 {
			return
		}
		sectorSize := 512
		if big {
			sectorSize = 4096
		}
		sum := sha256.Sum256(key) // any input is a key
		c := kernelCipher(t, sum[:])
		want := make([]byte, len(data))
		hi, lo := c.counter(sector, sectorSize)
		c.xorStream(want, data, hi, lo)
		got := append([]byte(nil), data...)
		c.xorKernel(got, got, hi, lo)
		if !bytes.Equal(got, want) {
			t.Fatalf("sector %d of %d bytes, %d bytes: kernel differs from crypto/cipher", sector, sectorSize, len(data))
		}
	})
}

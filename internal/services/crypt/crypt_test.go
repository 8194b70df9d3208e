package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockdev"
	"repro/internal/obs"
)

func testKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	return key
}

func TestNewCipherKeyValidation(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		if _, err := NewCipher(make([]byte, 16)); err == nil {
			t.Error("short key: want error")
		}
		if _, err := NewCipher(testKey()); err != nil {
			t.Errorf("NewCipher: %v", err)
		}
	})
}

func TestCipherInvolutive(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		c, err := NewCipher(testKey())
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte("secret! "), 64)
		buf := append([]byte(nil), want...)
		c.Transform(buf, 100, 512)
		if bytes.Equal(buf, want) {
			t.Fatal("Transform did not change the data")
		}
		c.Transform(buf, 100, 512)
		if !bytes.Equal(buf, want) {
			t.Error("double Transform is not identity")
		}
	})
}

// referenceTransform is the construction written out longhand: counter block
// i of the run is base + sector*(sectorSize/16) + i mod 2^128, big-endian,
// encrypted one block at a time.
func referenceTransform(t *testing.T, key []byte, base [aes.BlockSize]byte, data []byte, sector uint64, sectorSize int) []byte {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	ctr := new(big.Int).SetBytes(base[:])
	ctr.Add(ctr, new(big.Int).Mul(new(big.Int).SetUint64(sector), big.NewInt(int64(sectorSize/aes.BlockSize))))
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	out := make([]byte, len(data))
	var in, ks [aes.BlockSize]byte
	for off := 0; off < len(data); off += aes.BlockSize {
		ctr.Mod(ctr, mod).FillBytes(in[:])
		block.Encrypt(ks[:], in[:])
		for i := 0; i < aes.BlockSize && off+i < len(data); i++ {
			out[off+i] = data[off+i] ^ ks[i]
		}
		ctr.Add(ctr, big.NewInt(1))
	}
	return out
}

func TestCipherKnownAnswer(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		c, err := NewCipher(testKey())
		if err != nil {
			t.Fatal(err)
		}
		plain := bytes.Repeat([]byte("known answer "), 80)[:1024]
		check := func(name string, kc *Cipher, base [aes.BlockSize]byte) {
			t.Helper()
			got := append([]byte(nil), plain...)
			kc.Transform(got, 100, 512)
			if want := referenceTransform(t, testKey(), base, plain, 100, 512); !bytes.Equal(got, want) {
				t.Errorf("%s: Transform differs from the block-at-a-time reference", name)
			}
		}

		// NewCipher's own base, recomputed here independently of it.
		salt := sha256.Sum256(testKey())
		ivb, err := aes.NewCipher(salt[:])
		if err != nil {
			t.Fatal(err)
		}
		var derived [aes.BlockSize]byte
		ivb.Encrypt(derived[:], derived[:])
		check("derived base", c, derived)

		// Bases chosen for their carries. Sector 100 of 512 bytes starts 3200
		// counter blocks past base.
		for name, b := range map[string]struct{ hi, lo uint64 }{
			"low word carries before the run": {7, ^uint64(0) - 100},
			"low word carries mid-run":        {7, ^uint64(0) - 3200 - 10},
			"whole counter wraps":             {^uint64(0), ^uint64(0) - 3200 - 10},
			"no carry, high bits set":         {1 << 63, 1 << 63},
		} {
			var base [aes.BlockSize]byte
			binary.BigEndian.PutUint64(base[:8], b.hi)
			binary.BigEndian.PutUint64(base[8:], b.lo)
			check(name, &Cipher{data: c.data, baseHi: b.hi, baseLo: b.lo, enc: c.enc}, base)
		}
	})
}

// TestCipherCounterUniqueness: every 16-byte block of the volume has its own
// counter, so no two blocks of a zero-filled run share keystream.
func TestCipherCounterUniqueness(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		c, err := NewCipher(testKey())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		c.Transform(buf, 0, 512)
		seen := make(map[[aes.BlockSize]byte]int, len(buf)/aes.BlockSize)
		for off := 0; off < len(buf); off += aes.BlockSize {
			blk := [aes.BlockSize]byte(buf[off:])
			if prev, dup := seen[blk]; dup {
				t.Fatalf("blocks at %d and %d encrypt alike", prev, off)
			}
			seen[blk] = off
		}
	})
}

func TestCipherRoundTripProperty(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		c, err := NewCipher(testKey())
		if err != nil {
			t.Fatal(err)
		}
		f := func(data []byte, sector uint64) bool {
			if len(data) == 0 {
				return true
			}
			buf := append([]byte(nil), data...)
			c.Transform(buf, sector, 512)
			c.Transform(buf, sector, 512)
			return bytes.Equal(buf, data)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestDeviceTransparency(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		disk, err := blockdev.NewMemDisk(512, 128)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := NewDevice(disk, testKey(), CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte("plaintext"), 114)[:1024]
		if err := dev.WriteAt(want, 8); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		got := make([]byte, 1024)
		if err := dev.ReadAt(got, 8); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("decrypted data differs from plaintext")
		}
		// The backing device must hold ciphertext.
		raw := make([]byte, 1024)
		if err := disk.ReadAt(raw, 8); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(raw, want) {
			t.Error("backing device holds plaintext")
		}
		if bytes.Contains(raw, []byte("plaintext")) {
			t.Error("plaintext fragments leak to the backing device")
		}
	})
}

func TestDeviceDoesNotMutateCallerBuffer(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		disk, _ := blockdev.NewMemDisk(512, 16)
		dev, err := NewDevice(disk, testKey(), CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{0x55}, 512)
		orig := append([]byte(nil), buf...)
		if err := dev.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, orig) {
			t.Error("WriteAt mutated the caller's buffer")
		}
	})
}

// TestDeviceRequestBoundaryIndependence: the ciphertext is a function of
// (key, volume offset) only, so however writes are split or coalesced on the
// way down (write-back merging, MTU-sized bursts) the backing bytes are the
// same, and any read split decrypts them.
func TestDeviceRequestBoundaryIndependence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		const sectors, bs = 128, 512
		plain := make([]byte, sectors*bs)
		rng := rand.New(rand.NewSource(1))
		rng.Read(plain)

		var raws [2][]byte
		var devs [2]*Device
		for i := range devs {
			disk, err := blockdev.NewMemDisk(bs, 4*sectors)
			if err != nil {
				t.Fatal(err)
			}
			if devs[i], err = NewDevice(disk, testKey(), CostModel{}); err != nil {
				t.Fatal(err)
			}
			step := len(plain) // one 64 KiB command
			if i == 1 {
				step = bs // 128 single-sector commands
			}
			for off := 0; off < len(plain); off += step {
				if err := devs[i].WriteAt(plain[off:off+step], 64+uint64(off/bs)); err != nil {
					t.Fatal(err)
				}
			}
			raws[i] = make([]byte, len(plain))
			if err := disk.ReadAt(raws[i], 64); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(raws[0], raws[1]) {
			t.Fatal("one 64 KiB write and 128 sector writes left different ciphertext")
		}
		if bytes.Equal(raws[0], plain) {
			t.Fatal("backing device holds plaintext")
		}
		for _, dev := range devs {
			for s := 0; s < sectors; {
				n := 1 + rng.Intn(sectors-s)
				got := make([]byte, n*bs)
				if err := dev.ReadAt(got, 64+uint64(s)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, plain[s*bs:(s+n)*bs]) {
					t.Fatalf("read of sectors [%d,%d) does not decrypt", s, s+n)
				}
				s += n
			}
		}
	})
}

// TestDeviceConcurrentDisjointSectors: the pooled ciphertext buffer is per
// call, so concurrent commands on one Device never see each other's bytes.
func TestDeviceConcurrentDisjointSectors(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		const workers, span, bs = 8, 16, 512
		disk, err := blockdev.NewMemDisk(bs, workers*span)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := NewDevice(disk, testKey(), CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 200; i++ {
					n := 1 + rng.Intn(span)
					lba := uint64(g*span + rng.Intn(span-n+1))
					want := bytes.Repeat([]byte{byte(g), byte(i)}, n*bs/2)
					if err := dev.WriteAt(want, lba); err != nil {
						t.Errorf("WriteAt: %v", err)
						return
					}
					got := make([]byte, len(want))
					if err := dev.ReadAt(got, lba); err != nil {
						t.Errorf("ReadAt: %v", err)
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("worker %d: read back differs at lba %d", g, lba)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

func TestWrongKeyReadsGarbage(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		disk, _ := blockdev.NewMemDisk(512, 16)
		dev1, err := NewDevice(disk, testKey(), CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{1}, 512)
		if err := dev1.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		otherKey := testKey()
		otherKey[0] ^= 0xFF
		dev2, err := NewDevice(disk, otherKey, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 512)
		if err := dev2.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			t.Error("wrong key decrypted successfully")
		}
	})
}

func TestCostModelCharges(t *testing.T) {
	cpu := obs.NewCPUAccount()
	m := CostModel{PerKiB: time.Millisecond, CPU: cpu}
	start := time.Now()
	m.charge(4096)
	if el := time.Since(start); el < 3*time.Millisecond {
		t.Errorf("charge slept %v, want ~4ms", el)
	}
	if cpu.Busy("cipher") < 3*time.Millisecond {
		t.Errorf("CPU charged %v", cpu.Busy("cipher"))
	}
	// Named component.
	m2 := CostModel{PerKiB: time.Millisecond, CPU: cpu, Component: "dm-crypt"}
	m2.charge(1024)
	if cpu.Busy("dm-crypt") == 0 {
		t.Error("component name ignored")
	}
	// Zero model is free.
	CostModel{}.charge(1 << 20)
}

func TestServiceFactory(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		disk, _ := blockdev.NewMemDisk(512, 16)
		f := Service(testKey(), CostModel{})
		dev, err := f(disk)
		if err != nil {
			t.Fatalf("factory: %v", err)
		}
		if err := dev.WriteAt(make([]byte, 512), 0); err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
		// Bad key fails at build time.
		if _, err := Service([]byte("short"), CostModel{})(disk); err == nil {
			t.Error("short key: want error")
		}
		// So does a block size the volume-offset counter cannot address: with
		// 520-byte sectors, consecutive sectors would share keystream.
		odd, _ := blockdev.NewMemDisk(520, 16)
		if _, err := f(odd); err == nil {
			t.Error("block size 520: want error")
		}
		if _, err := NewDevice(odd, testKey(), CostModel{}); err == nil {
			t.Error("NewDevice with block size 520: want error")
		}
	})
}

func BenchmarkTransform(b *testing.B) {
	for _, path := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"fallback", false}} {
		if path.kernel && !kernelOK {
			continue
		}
		useKernel = path.kernel
		c, err := NewCipher(testKey())
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dK", path.name, size>>10), func(b *testing.B) {
				buf := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.Transform(buf, uint64(i), 512)
				}
			})
		}
	}
	useKernel = kernelOK
}

package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newDisk(t *testing.T, bs int, blocks uint64) *MemDisk {
	t.Helper()
	d, err := NewMemDisk(bs, blocks)
	if err != nil {
		t.Fatalf("NewMemDisk: %v", err)
	}
	return d
}

func TestMemDiskGeometry(t *testing.T) {
	d := newDisk(t, 512, 100)
	if d.BlockSize() != 512 || d.Blocks() != 100 {
		t.Errorf("geometry = %d/%d, want 512/100", d.BlockSize(), d.Blocks())
	}
}

func TestNewMemDiskRejectsBadGeometry(t *testing.T) {
	if _, err := NewMemDisk(0, 10); err == nil {
		t.Error("block size 0: want error")
	}
	if _, err := NewMemDisk(-4, 10); err == nil {
		t.Error("negative block size: want error")
	}
	if _, err := NewMemDisk(512, 0); err == nil {
		t.Error("zero blocks: want error")
	}
}

func TestMemDiskReadUnwrittenIsZero(t *testing.T) {
	d := newDisk(t, 512, 10)
	buf := bytes.Repeat([]byte{0xFF}, 1024)
	if err := d.ReadAt(buf, 3); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 1024)) {
		t.Error("unwritten blocks are not zero")
	}
}

func TestMemDiskWriteReadRoundTrip(t *testing.T) {
	d := newDisk(t, 512, 10)
	want := bytes.Repeat([]byte{0xA5}, 1536)
	if err := d.WriteAt(want, 2); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, 1536)
	if err := d.ReadAt(got, 2); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read data differs from written data")
	}
	// Neighbouring blocks must stay zero.
	one := make([]byte, 512)
	if err := d.ReadAt(one, 1); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(one, make([]byte, 512)) {
		t.Error("write spilled into preceding block")
	}
}

func TestMemDiskBounds(t *testing.T) {
	d := newDisk(t, 512, 10)
	buf := make([]byte, 512)
	if err := d.ReadAt(buf, 10); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadAt(lba=10): err = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteAt(make([]byte, 1024), 9); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("WriteAt crossing end: err = %v, want ErrOutOfRange", err)
	}
	// Overflow-safe: enormous lba must not wrap.
	if err := d.ReadAt(buf, ^uint64(0)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadAt(max lba): err = %v, want ErrOutOfRange", err)
	}
}

func TestMemDiskBadLength(t *testing.T) {
	d := newDisk(t, 512, 10)
	if err := d.ReadAt(make([]byte, 100), 0); !errors.Is(err, ErrBadLength) {
		t.Errorf("ReadAt(100 bytes): err = %v, want ErrBadLength", err)
	}
	if err := d.WriteAt(nil, 0); !errors.Is(err, ErrBadLength) {
		t.Errorf("WriteAt(nil): err = %v, want ErrBadLength", err)
	}
}

func TestMemDiskClose(t *testing.T) {
	d := newDisk(t, 512, 10)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, 512)
	if err := d.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadAt after Close: err = %v, want ErrClosed", err)
	}
	if err := d.WriteAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteAt after Close: err = %v, want ErrClosed", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close: err = %v, want ErrClosed", err)
	}
}

// allocatedBlocks is the number of blocks backed by real storage.
func allocatedBlocks(d *MemDisk) int {
	n := 0
	for _, ext := range d.extents {
		n += len(ext)
	}
	return n / d.blockSize
}

func TestMemDiskSparseAllocation(t *testing.T) {
	d := newDisk(t, 4096, 1<<30) // 4 TiB thin volume
	if err := d.WriteAt(make([]byte, 4096), 1<<29); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// Backing is extent-granular: the one block pins exactly its extent.
	if got, want := allocatedBlocks(d), extentSize/4096; got != want {
		t.Errorf("allocated blocks = %d, want %d (one extent)", got, want)
	}
	// A device smaller than an extent never pins more than its capacity.
	small := newDisk(t, 512, 16)
	if err := small.WriteAt(make([]byte, 512), 15); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if got := allocatedBlocks(small); got != 16 {
		t.Errorf("small device: allocated blocks = %d, want 16", got)
	}
}

func TestNewMemDiskRejectsOverflowingGeometry(t *testing.T) {
	if _, err := NewMemDisk(4096, 1<<62); err == nil {
		t.Error("2^74-byte device: want error")
	}
}

// blockMap is the per-block map MemDisk used before it paged by extent, kept
// as the reference model: one lazily allocated buffer per written block.
type blockMap struct {
	blockSize int
	data      map[uint64][]byte
}

func (m *blockMap) read(p []byte, lba uint64) {
	for i := 0; i*m.blockSize < len(p); i++ {
		dst := p[i*m.blockSize : (i+1)*m.blockSize]
		if blk, ok := m.data[lba+uint64(i)]; ok {
			copy(dst, blk)
		} else {
			clear(dst)
		}
	}
}

func (m *blockMap) write(p []byte, lba uint64) {
	for i := 0; i*m.blockSize < len(p); i++ {
		m.data[lba+uint64(i)] = append([]byte(nil), p[i*m.blockSize:(i+1)*m.blockSize]...)
	}
}

func (m *blockMap) clone() *blockMap {
	cp := &blockMap{blockSize: m.blockSize, data: make(map[uint64][]byte, len(m.data))}
	for lba, blk := range m.data {
		cp.data[lba] = blk // write replaces, never mutates, a block
	}
	return cp
}

// TestMemDiskMatchesBlockMapModel drives MemDisk and the per-block reference
// with the same random commands: sizes from one block to 256 KiB that
// straddle extents, block sizes that divide the extent (512, 4096) and one
// that does not (520), reads of never-written ranges, and a mid-run Clone
// that must stay independent of its origin in both directions.
func TestMemDiskMatchesBlockMapModel(t *testing.T) {
	for _, bs := range []int{512, 4096, 520} {
		t.Run(fmt.Sprintf("bs%d", bs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(bs)))
			const capacity = 3<<20 + 12345
			blocks := uint64(capacity / bs) // the tail extent is partial
			maxRun := 256 << 10 / bs
			disks := []*MemDisk{newDisk(t, bs, blocks)}
			models := []*blockMap{{blockSize: bs, data: map[uint64][]byte{}}}
			for op := 0; op < 600; op++ {
				if op == 250 {
					cp, err := disks[0].Clone()
					if err != nil {
						t.Fatalf("Clone: %v", err)
					}
					disks, models = append(disks, cp), append(models, models[0].clone())
				}
				which := rng.Intn(len(disks))
				d, m := disks[which], models[which]
				n := 1 + rng.Intn(maxRun)
				if rng.Intn(2) == 0 {
					n = 1 + rng.Intn(4) // small commands too
				}
				lba := uint64(rng.Int63n(int64(blocks) - int64(n) + 1))
				if rng.Intn(8) == 0 {
					lba = blocks - uint64(n) // reach the device's last block
				}
				buf := make([]byte, n*bs)
				if rng.Intn(2) == 0 {
					rng.Read(buf)
					if err := d.WriteAt(buf, lba); err != nil {
						t.Fatalf("op %d: WriteAt(%d blocks @%d): %v", op, n, lba, err)
					}
					m.write(buf, lba)
					continue
				}
				want := make([]byte, len(buf))
				m.read(want, lba)
				rng.Read(buf) // stale bytes the read must overwrite, zeros included
				if err := d.ReadAt(buf, lba); err != nil {
					t.Fatalf("op %d: ReadAt(%d blocks @%d): %v", op, n, lba, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("op %d: disk %d: ReadAt(%d blocks @%d) differs from the model", op, which, n, lba)
				}
			}
			// Full sweep: both images, origin and clone, match their models.
			for i, d := range disks {
				got, want := make([]byte, blocks*uint64(bs)), make([]byte, blocks*uint64(bs))
				if err := d.ReadAt(got, 0); err != nil {
					t.Fatalf("disk %d: full read: %v", i, err)
				}
				models[i].read(want, 0)
				if !bytes.Equal(got, want) {
					t.Errorf("disk %d: final image differs from the model", i)
				}
			}
			// The error contract is unchanged.
			d := disks[0]
			if err := d.ReadAt(make([]byte, bs+1), 0); !errors.Is(err, ErrBadLength) {
				t.Errorf("ReadAt(bs+1): err = %v, want ErrBadLength", err)
			}
			if err := d.WriteAt(make([]byte, 2*bs), blocks-1); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("WriteAt past end: err = %v, want ErrOutOfRange", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := d.WriteAt(make([]byte, bs), 0); !errors.Is(err, ErrClosed) {
				t.Errorf("WriteAt after Close: err = %v, want ErrClosed", err)
			}
			if _, err := d.Clone(); !errors.Is(err, ErrClosed) {
				t.Errorf("Clone after Close: err = %v, want ErrClosed", err)
			}
			if err := disks[1].ReadAt(make([]byte, bs), 0); err != nil {
				t.Errorf("clone died with its origin: %v", err)
			}
		})
	}
}

func BenchmarkMemDiskRW(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dK", size>>10), func(b *testing.B) {
			d, err := NewMemDisk(512, 16<<20/512)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, size)
			span := d.Blocks() - uint64(size/512)
			b.SetBytes(2 * int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lba := uint64(i) * 8 % span // 4 KiB strides: 64 KiB commands straddle extents
				if err := d.WriteAt(buf, lba); err != nil {
					b.Fatal(err)
				}
				if err := d.ReadAt(buf, lba); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMemDiskWriteDoesNotAliasCaller(t *testing.T) {
	d := newDisk(t, 512, 4)
	buf := bytes.Repeat([]byte{1}, 512)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	buf[0] = 99
	got := make([]byte, 512)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if got[0] != 1 {
		t.Error("device aliases the caller's write buffer")
	}
}

func TestMemDiskConcurrentAccess(t *testing.T) {
	d := newDisk(t, 512, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(g)}, 512)
			for i := 0; i < 50; i++ {
				lba := uint64(g*8 + i%8)
				if err := d.WriteAt(buf, lba); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
				got := make([]byte, 512)
				if err := d.ReadAt(got, lba); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMemDiskProperty(t *testing.T) {
	// Property: after a sequence of writes, each block reads back the last
	// value written to it (model: map of block -> fill byte).
	const blocks = 32
	f := func(ops []struct {
		LBA  uint8
		Fill byte
	}) bool {
		d, err := NewMemDisk(64, blocks)
		if err != nil {
			return false
		}
		model := make(map[uint64]byte)
		for _, op := range ops {
			lba := uint64(op.LBA % blocks)
			if err := d.WriteAt(bytes.Repeat([]byte{op.Fill}, 64), lba); err != nil {
				return false
			}
			model[lba] = op.Fill
		}
		for lba, fill := range model {
			got := make([]byte, 64)
			if err := d.ReadAt(got, lba); err != nil {
				return false
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{fill}, 64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServiceModelCost(t *testing.T) {
	m := ServiceModel{PerRequest: time.Millisecond, PerByte: time.Microsecond}
	if got, want := m.Cost(100), time.Millisecond+100*time.Microsecond; got != want {
		t.Errorf("Cost(100) = %v, want %v", got, want)
	}
}

func TestLatencyDiskDelaysAndDelegates(t *testing.T) {
	inner := newDisk(t, 512, 4)
	d := NewLatencyDiskQueued(inner, ServiceModel{PerRequest: 5 * time.Millisecond}, ServiceModel{PerRequest: 5 * time.Millisecond}, 0)
	start := time.Now()
	if err := d.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Errorf("WriteAt returned after %v, want >= ~5ms", el)
	}
	if d.BlockSize() != 512 || d.Blocks() != 4 {
		t.Error("LatencyDisk does not delegate geometry")
	}
	if err := d.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestFaultDiskTrip(t *testing.T) {
	inner := newDisk(t, 512, 4)
	d := NewFaultDisk(inner)
	buf := make([]byte, 512)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("WriteAt before trip: %v", err)
	}
	wantErr := errors.New("medium gone")
	d.Trip(wantErr)
	if err := d.ReadAt(buf, 0); !errors.Is(err, wantErr) {
		t.Errorf("ReadAt after trip: err = %v, want %v", err, wantErr)
	}
	if err := d.WriteAt(buf, 0); !errors.Is(err, wantErr) {
		t.Errorf("WriteAt after trip: err = %v, want %v", err, wantErr)
	}
	if err := d.Flush(); !errors.Is(err, wantErr) {
		t.Errorf("Flush after trip: err = %v, want %v", err, wantErr)
	}
}

func TestCountingDisk(t *testing.T) {
	inner := newDisk(t, 512, 8)
	d := NewCountingDisk(inner)
	buf := make([]byte, 1024)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if err := d.ReadAt(buf, 2); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if d.Writes() != 1 || d.Reads() != 2 {
		t.Errorf("ops = %d writes / %d reads, want 1/2", d.Writes(), d.Reads())
	}
	// Failed operations must not count.
	if err := d.ReadAt(buf, 100); err == nil {
		t.Fatal("ReadAt out of range: want error")
	}
	if d.Reads() != 2 {
		t.Error("failed read was counted")
	}
}

func TestCacheDiskServesHits(t *testing.T) {
	inner := newDisk(t, 512, 64)
	counting := NewCountingDisk(inner)
	d := NewCacheDisk(counting, 32*512)
	want := bytes.Repeat([]byte{7}, 1024)
	if err := d.WriteAt(want, 4); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	for i := 0; i < 3; i++ {
		if err := d.ReadAt(got, 4); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("cache returned wrong data")
		}
	}
	if counting.Reads() != 0 {
		t.Errorf("cached reads hit the device %d times", counting.Reads())
	}
}

func TestCacheDiskMissPopulates(t *testing.T) {
	inner := newDisk(t, 512, 64)
	if err := inner.WriteAt(bytes.Repeat([]byte{9}, 512), 10); err != nil {
		t.Fatal(err)
	}
	counting := NewCountingDisk(inner)
	d := NewCacheDisk(counting, 32*512)
	buf := make([]byte, 512)
	if err := d.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatal("miss returned wrong data")
	}
	if err := d.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	if counting.Reads() != 1 {
		t.Errorf("device reads = %d, want 1 (second read cached)", counting.Reads())
	}
}

func TestCacheDiskEviction(t *testing.T) {
	inner := newDisk(t, 512, 64)
	d := NewCacheDisk(inner, 4*512) // 4 blocks
	buf := make([]byte, 512)
	for lba := uint64(0); lba < 8; lba++ {
		if err := d.WriteAt(bytes.Repeat([]byte{byte(lba)}, 512), lba); err != nil {
			t.Fatal(err)
		}
	}
	// Early blocks were evicted; re-reading them must still be correct
	// (write-through), served from the device.
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("evicted block reread wrong")
	}
	if err := d.ReadAt(buf, 7); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Error("recent block wrong")
	}
}

func TestCacheDiskWriteThrough(t *testing.T) {
	inner := newDisk(t, 512, 16)
	d := NewCacheDisk(inner, 8*512)
	want := bytes.Repeat([]byte{3}, 512)
	if err := d.WriteAt(want, 2); err != nil {
		t.Fatal(err)
	}
	direct := make([]byte, 512)
	if err := inner.ReadAt(direct, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, want) {
		t.Error("write did not reach the backing device")
	}
	if err := d.ReadAt(make([]byte, 100), 0); !errors.Is(err, ErrBadLength) {
		t.Error("unaligned read accepted")
	}
}

package middlebox

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// yieldingDisk gives up the processor before every write, so applies lag
// admission and items queue, overlap and coalesce.
type yieldingDisk struct{ blockdev.Device }

func (d yieldingDisk) WriteAt(p []byte, lba uint64) error {
	runtime.Gosched()
	return d.Device.WriteAt(p, lba)
}

// checkRecycled asserts that an idle device holds no item anywhere but on
// its free list, and that every free item is reset and listed once: an item
// recycled while cov, ready or a predecessor still named it would be handed
// out again while in use.
func checkRecycled(t *testing.T, wb *WriteBackDevice) {
	t.Helper()
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if wb.items != 0 || len(wb.cov.r) != 0 || len(wb.ready) != wb.readyAt || wb.tail != nil {
		t.Fatalf("idle device still holds items: items %d cov %d ready %d tail %v",
			wb.items, len(wb.cov.r), len(wb.ready)-wb.readyAt, wb.tail != nil)
	}
	seen := make(map[*wbItem]bool, len(wb.free))
	for _, it := range wb.free {
		if seen[it] {
			t.Fatal("an item is on the free list twice")
		}
		seen[it] = true
		if it.lba != 0 || it.end != 0 || len(it.seqs) != 0 || it.data != nil || it.dbuf != nil ||
			it.ndeps != 0 || len(it.dependents) != 0 || it.dispatched {
			t.Fatalf("free item not reset: %+v", it)
		}
	}
	if len(wb.free) == 0 {
		t.Fatal("no item was recycled")
	}
}

// TestWriteBackItemRecyclingStress drives overlapping and coalescing writes
// through the parallel appliers, checking every read against the writes
// before it, then a backend loss through recovery exhaustion (failParked).
// Either way the device must end with every item back on the free list and
// nothing else naming it. Run with -race.
func TestWriteBackItemRecyclingStress(t *testing.T) {
	t.Run("load", func(t *testing.T) {
		const (
			bs     = 512
			owners = 4
			span   = 32 // blocks per owner
			rounds = 400
		)
		disk, err := blockdev.NewMemDisk(bs, owners*span)
		if err != nil {
			t.Fatal(err)
		}
		wb := NewWriteBack(yieldingDisk{disk}, NewJournal(1<<20))
		shadows := make([][]byte, owners)
		var wg sync.WaitGroup
		errs := make(chan string, owners)
		for g := 0; g < owners; g++ {
			shadows[g] = make([]byte, span*bs)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				base := uint64(g * span)
				shadow, got := shadows[g], make([]byte, span*bs)
				buf := make([]byte, 4*bs)
				next := 0 // where the next sequential write starts
				for i := 0; i < rounds; i++ {
					// Two writes in three run sequentially, adjacent to the
					// last, and coalesce; every third lands anywhere and
					// overlaps what is pending.
					lba, n := next, 1+(i*7+g)%4
					if i%3 == 0 {
						lba = (i*13 + g*5) % span
					}
					n = min(n, span-lba)
					next = (lba + n) % span
					for b := 0; b < n; b++ {
						for w := 0; w < bs; w += 4 {
							binary.BigEndian.PutUint32(buf[b*bs+w:], uint32(g<<24|i<<8|b))
						}
					}
					copy(shadow[lba*bs:], buf[:n*bs])
					if err := wb.WriteAt(buf[:n*bs], base+uint64(lba)); err != nil {
						errs <- err.Error()
						return
					}
					if i%4 != 3 {
						continue
					}
					if err := wb.ReadAt(got, base); err != nil {
						errs <- err.Error()
						return
					}
					if !bytes.Equal(got, shadow) {
						errs <- "read after write saw other bytes than the last writes"
						return
					}
				}
			}(g)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("writers hung: a recycled item still owns blocks or waits on itself")
		}
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
		final := make([]byte, span*bs)
		for g := 0; g < owners; g++ {
			if err := disk.ReadAt(final, uint64(g*span)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(final, shadows[g]) {
				t.Fatalf("owner %d: backend differs from the last writes", g)
			}
		}
		checkRecycled(t, wb)
		if err := wb.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("recovery exhausted", func(t *testing.T) {
		disk, err := blockdev.NewMemDisk(512, 128)
		if err != nil {
			t.Fatal(err)
		}
		be := &flakyBackend{disk: disk}
		be.down.Store(true)
		heal := make(chan struct{})
		wb := NewWriteBackRecovering(be, NewJournal(0), func() (blockdev.Device, error) {
			<-heal // hold recovery until the writes below are parked
			return nil, errBackendDown
		})
		if err := wb.WriteAt(make([]byte, 512), 0); err != nil {
			t.Fatal(err)
		}
		waitDegraded(t, wb, true)
		// Parked: a chain of overlapping writes, each waiting on the one
		// before, then an adjacent run that coalesces.
		for i := 0; i < 64; i++ {
			lba := uint64(i % 4)
			if i >= 32 {
				lba = uint64(2 * i)
			}
			if err := wb.WriteAt(bytes.Repeat([]byte{byte(i)}, 1024), lba); err != nil {
				t.Fatalf("parked write %d: %v", i, err)
			}
		}
		close(heal)
		waitDegraded(t, wb, false) // recovery gave up and failed the parked items
		checkRecycled(t, wb)
		if err := wb.Flush(); err == nil || !strings.Contains(err.Error(), "recovery failed") {
			t.Fatalf("Flush err = %v, want the terminal recovery error", err)
		}
		if err := wb.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

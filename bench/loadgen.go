package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
)

// traffic is one block-level mix. Load is closed loop: each client issues
// its next I/O when the previous one returns, like a guest block queue.
type traffic struct {
	ioBytes   int
	readShare float64
	clients   int
	spanBytes uint64
	// dupShare is the share of writes that repeat one of a small set of
	// payloads instead of carrying a fresh one (dedup traffic).
	dupShare float64
}

// dupPayloads is how many distinct repeated payloads a client cycles
// through; their sequence numbers are 1..dupPayloads, below every fresh
// write's.
const dupPayloads = 16

const sectorBytes = 512

// recorder collects one client's latency samples for one repeat. Buffers
// are allocated once so the timed window allocates nothing of its own.
type recorder struct {
	writeNs, readNs []int64
	failed          int64
	firstErr        error
}

func newRecorder() *recorder {
	const room = 1 << 19 // samples per direction: a window stays well under it
	return &recorder{writeNs: make([]int64, 0, room), readNs: make([]int64, 0, room)}
}

func (r *recorder) reset() {
	r.writeNs, r.readNs, r.failed = r.writeNs[:0], r.readNs[:0], 0
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// blockClient is one closed-loop client. It owns every clients-th slot of
// the span, stamps each sector it writes with (client, sector, seq), and
// checks every read against its own last acknowledged write to that slot.
type blockClient struct {
	id      int
	tr      traffic
	rng     *rand.Rand
	filler  []byte
	buf     []byte
	want    []byte
	lastSeq []uint64 // per owned slot; 0 = never written
	written []int    // owned slots written at least once
	seq     uint64
	rec     *recorder
	// A write that returned an error may or may not have landed; the slot
	// then legitimately holds either payload.
	torn    bool
	tornAt  int
	tornSeq uint64
	stop    atomic.Bool // ends writeUntilError
}

func newBlockClients(tr traffic, seed int64) []*blockClient {
	slots := int(tr.spanBytes / uint64(tr.ioBytes))
	cs := make([]*blockClient, tr.clients)
	for i := range cs {
		c := &blockClient{
			id:      i,
			tr:      tr,
			rng:     rand.New(rand.NewSource(seed*1000003 + int64(i))),
			filler:  make([]byte, tr.ioBytes),
			buf:     make([]byte, tr.ioBytes),
			want:    make([]byte, tr.ioBytes),
			lastSeq: make([]uint64, (slots+tr.clients-1-i)/tr.clients),
			seq:     dupPayloads,
			rec:     newRecorder(),
		}
		c.rng.Read(c.filler)
		cs[i] = c
	}
	return cs
}

// fill writes the payload of (client, seq) into p: seeded filler with a
// 16-byte stamp at the head of every sector, so a misplaced or stale sector
// is detected, not only a wrong first byte.
func (c *blockClient) fill(p []byte, seq uint64) {
	copy(p, c.filler)
	for off := 0; off < len(p); off += sectorBytes {
		binary.LittleEndian.PutUint32(p[off:], uint32(c.id))
		binary.LittleEndian.PutUint32(p[off+4:], uint32(off/sectorBytes))
		binary.LittleEndian.PutUint64(p[off+8:], seq)
	}
}

func (c *blockClient) lba(slot int) uint64 {
	return uint64(slot*c.tr.clients+c.id) * uint64(c.tr.ioBytes/sectorBytes)
}

// step issues one I/O and returns the time it completed.
func (c *blockClient) step(dev blockdev.Device) time.Time {
	if len(c.written) > 0 && c.rng.Float64() < c.tr.readShare {
		slot := c.written[c.rng.Intn(len(c.written))]
		start := time.Now()
		err := dev.ReadAt(c.buf, c.lba(slot))
		end := time.Now()
		c.rec.readNs = append(c.rec.readNs, int64(end.Sub(start)))
		if err != nil {
			c.rec.fail(err)
		} else if !c.holds(slot) {
			c.rec.fail(errIntegrity)
		}
		return end
	}
	end, _ := c.write(dev)
	return end
}

// holds reports whether c.buf is what slot must contain.
func (c *blockClient) holds(slot int) bool {
	c.fill(c.want, c.lastSeq[slot])
	if bytes.Equal(c.buf, c.want) {
		return true
	}
	if c.torn && c.tornAt == slot {
		c.fill(c.want, c.tornSeq)
		return bytes.Equal(c.buf, c.want)
	}
	return false
}

func (c *blockClient) write(dev blockdev.Device) (time.Time, error) {
	slot := c.rng.Intn(len(c.lastSeq))
	seq := c.seq + 1
	if c.tr.dupShare > 0 && c.rng.Float64() < c.tr.dupShare {
		seq = 1 + uint64(c.rng.Intn(dupPayloads))
	} else {
		c.seq = seq
	}
	c.fill(c.buf, seq)
	start := time.Now()
	err := dev.WriteAt(c.buf, c.lba(slot))
	end := time.Now()
	c.rec.writeNs = append(c.rec.writeNs, int64(end.Sub(start)))
	if err != nil {
		c.rec.fail(err)
		c.torn, c.tornAt, c.tornSeq = true, slot, seq
		return end, err
	}
	if c.lastSeq[slot] == 0 {
		c.written = append(c.written, slot)
	}
	c.lastSeq[slot] = seq
	if c.torn && c.tornAt == slot {
		c.torn = false
	}
	return end, nil
}

// writeUntilError issues writes until one fails or stop is set: the load
// under which the crash check kills the serving instance.
func (c *blockClient) writeUntilError(dev blockdev.Device) {
	for !c.stop.Load() {
		if _, err := c.write(dev); err != nil {
			return
		}
	}
}

// runBlock drives every client against dev for d and returns the wall time
// the window actually took.
func runBlock(dev blockdev.Device, clients []*blockClient, d time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *blockClient) {
			defer wg.Done()
			for c.step(dev).Before(deadline) {
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// verifyAll has every client read back every slot it ever wrote and
// returns how many do not hold their last acknowledged write (errors
// included).
func verifyAll(dev blockdev.Device, clients []*blockClient) (checked, lost int) {
	losses := make([]int, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		checked += len(c.written)
		wg.Add(1)
		go func(i int, c *blockClient) {
			defer wg.Done()
			for _, slot := range c.written {
				if err := dev.ReadAt(c.buf, c.lba(slot)); err != nil || !c.holds(slot) {
					losses[i]++
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, n := range losses {
		lost += n
	}
	return checked, lost
}

package netsim

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
)

// readFull fills b from the pipe (framePipe.read returns what has arrived).
func readFull(t *testing.T, p *framePipe, b []byte) {
	t.Helper()
	for n := 0; n < len(b); {
		c, err := p.read(b[n:])
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		n += c
	}
}

// TestUnmodelledPipeTransitions walks one pipe through modelled → unmodelled
// → modelled stretches (an injected host delay set and healed, a bandwidth
// cap set and lifted, mid-stream, with earlier frames still queued) and
// checks what the clock-free fast path must not break: frames written while
// nothing is modelled carry no arrival time, bytes come out in the order
// they went in, no delayed frame is delivered before its time, and no frame
// overtakes a delayed one ahead of it.
func TestUnmodelledPipeTransitions(t *testing.T) {
	const (
		chunk    = 1000 // < mtu: one frame per chunk
		perPhase = 3
		delay    = 40 * time.Millisecond
	)
	throttle := []*faults.SlowBackend{faults.NewSlowBackend(100<<10, chunk)} // 100 KiB/s: ~10 ms per chunk once the burst is spent
	phases := []struct {
		name      string
		extra     time.Duration
		throttles []*faults.SlowBackend
	}{
		{name: "quiet"},
		{name: "delayed", extra: delay},
		{name: "healed"},
		{name: "throttled", throttles: throttle},
		{name: "unthrottled"},
		{name: "delayed again", extra: delay},
		{name: "healed again"},
	}

	p := newFramePipe(PathCost{}, 1024, nil)
	type sent struct {
		phase    int
		at       time.Time     // just before the write
		minDelay time.Duration // the frame may not be readable before at+minDelay
	}
	var log []sent
	buf := make([]byte, chunk)
	for pi, ph := range phases {
		p.setExtra(ph.extra)
		p.setThrottles(ph.throttles)
		for i := 0; i < perPhase; i++ {
			binary.BigEndian.PutUint64(buf, uint64(len(log)))
			log = append(log, sent{phase: pi, at: time.Now(), minDelay: ph.extra})
			if _, err := p.write(buf); err != nil {
				t.Fatalf("%s: write: %v", ph.name, err)
			}
		}
	}

	// Every frame is still queued (nothing has been read): untimed exactly
	// where nothing was modelled.
	if got := len(p.frames) - p.head; got != len(log) {
		t.Fatalf("%d frames queued, want %d", got, len(log))
	}
	for i, s := range log {
		ph := phases[s.phase]
		timed := ph.extra != 0 || ph.throttles != nil
		if got := !p.frames[p.head+i].at.IsZero(); got != timed {
			t.Errorf("frame %d (%s): carries an arrival time = %v, want %v", i, ph.name, got, timed)
		}
	}

	var barrier time.Time // latest "not before" among the frames already read
	got := make([]byte, chunk)
	for i, s := range log {
		readFull(t, p, got)
		now := time.Now()
		if seq := binary.BigEndian.Uint64(got); seq != uint64(i) {
			t.Fatalf("read chunk %d, want %d: bytes out of order", seq, i)
		}
		if nb := s.at.Add(s.minDelay); nb.After(barrier) {
			barrier = nb
		}
		if now.Before(barrier) {
			t.Errorf("chunk %d (%s) read %v early", i, phases[s.phase].name, barrier.Sub(now))
		}
	}
	// The cap stretched its phase: three chunks at 100 KiB/s with one chunk
	// of burst cannot all arrive inside 15 ms of the first write.
	first := log[3*perPhase].at
	if !p.lastArrival.After(first.Add(15 * time.Millisecond)) {
		t.Errorf("throttled frames paced to %v after the phase began, want > 15ms", p.lastArrival.Sub(first))
	}
	if p.head != 0 || len(p.frames) != 0 {
		t.Errorf("drained queue not reset: head %d len %d", p.head, len(p.frames))
	}
}

// TestUnmodelledPipeReadDeadline: the read deadline is the one thing an
// unmodelled pipe still needs the clock for, and only when one is set.
func TestUnmodelledPipeReadDeadline(t *testing.T) {
	p := newFramePipe(PathCost{}, 1024, nil)
	p.setDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	if _, err := p.read(make([]byte, 8)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read on an empty pipe: err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond || d > 2*time.Second {
		t.Errorf("deadline fired after %v, want ~20ms", d)
	}
	// An expired deadline refuses even data that is already there ...
	if _, err := p.write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.read(make([]byte, 8)); !errors.Is(err, ErrTimeout) {
		t.Errorf("read past the deadline: err = %v, want deadline exceeded", err)
	}
	// ... and clearing it hands the data over.
	p.setDeadline(time.Time{})
	b := make([]byte, 8)
	if n, err := p.read(b); err != nil || string(b[:n]) != "payload" {
		t.Errorf("read after clearing the deadline = %q, %v", b[:n], err)
	}
}

// TestFrameQueueReusesCapacity keeps a few frames in flight while many more
// pass through: the queue must stay within a small backing array and hand
// every byte over in order.
func TestFrameQueueReusesCapacity(t *testing.T) {
	p := newFramePipe(PathCost{}, 1024, nil)
	var wr, rd uint64
	buf := make([]byte, 8)
	write := func() {
		binary.BigEndian.PutUint64(buf, wr)
		wr++
		if _, err := p.write(buf); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		readFull(t, p, buf)
		if got := binary.BigEndian.Uint64(buf); got != rd {
			t.Fatalf("read %d, want %d", got, rd)
		}
		rd++
	}
	for depth := 1; depth <= 5; depth++ { // never empty, so head keeps advancing
		for wr-rd < uint64(depth) {
			write()
		}
		for i := 0; i < 1000; i++ {
			write()
			read()
		}
	}
	for rd < wr {
		read()
	}
	if c := cap(p.frames); c > 32 {
		t.Errorf("frame queue grew to cap %d with at most 6 frames in flight", c)
	}
}

package netsim

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/bufpool"
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
// overtakes a delayed one ahead of it. The reader either copies every frame
// out or takes frames whole where it can, and then must take exactly the
// untimed ones.
func TestUnmodelledPipeTransitions(t *testing.T) {
	t.Run("read", func(t *testing.T) { testPipeTransitions(t, false) })
	t.Run("take", func(t *testing.T) { testPipeTransitions(t, true) })
}

func testPipeTransitions(t *testing.T, take bool) {
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
		ph := phases[s.phase]
		timed := ph.extra != 0 || ph.throttles != nil
		var taken bool
		if take {
			f, _, err := p.take()
			if err != nil {
				t.Fatalf("take: %v", err)
			}
			if taken = f != nil; taken {
				if len(f.B) != chunk {
					t.Fatalf("took a %d-byte frame, want %d", len(f.B), chunk)
				}
				copy(got, f.B)
				f.Release()
			}
			if taken == timed {
				t.Fatalf("chunk %d (%s): taken = %v", i, ph.name, taken)
			}
		}
		if !taken {
			readFull(t, p, got)
		}
		now := time.Now()
		if seq := binary.BigEndian.Uint64(got); seq != uint64(i) {
			t.Fatalf("read chunk %d, want %d: bytes out of order", seq, i)
		}
		if nb := s.at.Add(s.minDelay); nb.After(barrier) {
			barrier = nb
		}
		if now.Before(barrier) {
			t.Errorf("chunk %d (%s) read %v early", i, ph.name, barrier.Sub(now))
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
// unmodelled pipe still needs the clock for, and only when one is set. A
// frame take honours it exactly as a read does.
func TestUnmodelledPipeReadDeadline(t *testing.T) {
	consumers := map[string]func(p *framePipe) (string, error){
		"read": func(p *framePipe) (string, error) {
			b := make([]byte, 8)
			n, err := p.read(b)
			return string(b[:n]), err
		},
		"take": func(p *framePipe) (string, error) {
			f, _, err := p.take()
			if f == nil {
				return "", err
			}
			defer f.Release()
			return string(f.B), err
		},
	}
	for name, consume := range consumers {
		t.Run(name, func(t *testing.T) {
			p := newFramePipe(PathCost{}, 1024, nil)
			p.setDeadline(time.Now().Add(20 * time.Millisecond))
			start := time.Now()
			if _, err := consume(p); !errors.Is(err, ErrTimeout) {
				t.Fatalf("%s on an empty pipe: err = %v, want deadline exceeded", name, err)
			}
			if d := time.Since(start); d < 20*time.Millisecond || d > 2*time.Second {
				t.Errorf("deadline fired after %v, want ~20ms", d)
			}
			// An expired deadline refuses even data that is already there ...
			if _, err := p.write([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			if _, err := consume(p); !errors.Is(err, ErrTimeout) {
				t.Fatalf("%s past the deadline: err = %v, want deadline exceeded", name, err)
			}
			// ... and clearing it hands the data over.
			p.setDeadline(time.Time{})
			if got, err := consume(p); err != nil || got != "payload" {
				t.Errorf("%s after clearing the deadline = %q, %v", name, got, err)
			}
		})
	}
}

// TestTakenFrameIsTheCallers: a taken frame leaves the pipe for good — the
// pipe neither hands it out again nor returns it to the pool behind the
// taker's back, so a later frame of the same size is another buffer — and
// more says whether frames were queued behind it.
func TestTakenFrameIsTheCallers(t *testing.T) {
	p := newFramePipe(PathCost{}, 1024, nil)
	for _, s := range []string{"first", "secnd"} {
		if _, err := p.write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	first, more, err := p.take()
	if err != nil || first == nil || string(first.B) != "first" || !more {
		t.Fatalf("take = %v, more %v, %v; want the first frame with one behind it", first, more, err)
	}
	second, more, err := p.take()
	if err != nil || second == nil || string(second.B) != "secnd" || more {
		t.Fatalf("take = %v, more %v, %v; want the second frame, nothing behind it", second, more, err)
	}
	second.Release()
	if _, err := p.write([]byte("third")); err != nil {
		t.Fatal(err)
	}
	third, _, err := p.take()
	if err != nil || third == nil {
		t.Fatalf("take = %v, %v", third, err)
	}
	if third == first {
		t.Fatal("the pipe handed a taken frame out again")
	}
	if string(first.B) != "first" || string(third.B) != "third" {
		t.Errorf("frames hold %q and %q, want first and third", first.B, third.B)
	}
	first.Release()
	third.Release()

	// A partly read head frame is read to its end, not taken.
	if _, err := p.write([]byte("fourth")); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 3)
	readFull(t, p, b)
	if f, _, err := p.take(); f != nil || err != nil {
		t.Fatalf("take of a partly read frame = %v, %v; want read instead", f, err)
	}
	readFull(t, p, b)
	if string(b) != "rth" {
		t.Errorf("rest of the partly read frame = %q", b)
	}
}

// TestTakeFrameAtCloseAndAbort: after Close, or an Abort with a reason,
// TakeFrame drains what was queued and then fails exactly as Read does.
func TestTakeFrameAtCloseAndAbort(t *testing.T) {
	reset := errors.New("connection reset by peer")
	for _, c := range []struct {
		name string
		end  func(*Conn)
		want error
	}{
		{"close", func(c *Conn) { _ = c.Close() }, io.EOF},
		{"abort", func(c *Conn) { c.Abort(reset) }, reset},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, take := range []bool{false, true} {
				dialer, acceptor := newConnPair(Model{}, &Route{}, nil, nil)
				if _, err := dialer.Write([]byte("queued")); err != nil {
					t.Fatal(err)
				}
				c.end(dialer)
				var got []byte
				var err error
				if take {
					var f *bufpool.Buf
					if f, _, err = acceptor.TakeFrame(); f != nil {
						got = append(got, f.B...)
						f.Release()
						_, _, err = acceptor.TakeFrame()
					}
				} else {
					b := make([]byte, 64)
					var n int
					if n, err = acceptor.Read(b); n > 0 {
						got = b[:n]
						_, err = acceptor.Read(b)
					}
				}
				if string(got) != "queued" || !errors.Is(err, c.want) {
					t.Errorf("take=%v: drained %q then err %v, want \"queued\" then %v", take, got, err, c.want)
				}
			}
		})
	}
}

// TestUntimedWriteOverPoolMaxStaysPooled: an untimed write is one frame only
// up to the largest pooled size; past it the pipe still chunks, so nothing
// on it becomes an unpooled allocation.
func TestUntimedWriteOverPoolMaxStaysPooled(t *testing.T) {
	p := newFramePipe(PathCost{}, 1024, nil)
	_, _, over := bufpool.Snapshot()
	if _, err := p.write(make([]byte, bufpool.MaxPooled+1)); err != nil {
		t.Fatal(err)
	}
	if _, _, now := bufpool.Snapshot(); now != over {
		t.Errorf("%d oversized (unpooled) frames", now-over)
	}
	for _, want := range []int{bufpool.MaxPooled, 1} {
		f, _, err := p.take()
		if err != nil || f == nil || len(f.B) != want {
			t.Fatalf("take = %v, %v; want a %d-byte frame", f, err, want)
		}
		f.Release()
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

package netsim

import (
	"errors"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/faults"
)

// ErrTimeout is returned by reads that exceed the configured deadline.
// It matches os.ErrDeadlineExceeded so net.Conn callers behave normally.
var ErrTimeout = os.ErrDeadlineExceeded

// errClosedPipe reports use of a closed connection.
var errClosedPipe = errors.New("netsim: connection closed")

// frame is a unit of in-flight data with its modelled arrival time — the
// zero time for a frame written while nothing was modelled, which has arrived
// by definition. data is the unread remainder of buf's bytes; buf returns to
// the pool once the frame is fully consumed, unless a reader took it whole.
type frame struct {
	at   time.Time
	data []byte
	buf  *bufpool.Buf
}

// framePipe is one direction of a simulated connection: a queue of frames
// that become readable at their modelled arrival times. Writers never block
// (the peer's TCP window is assumed open); readers block until data arrives.
type framePipe struct {
	mu          sync.Mutex
	cost        PathCost
	mtu         int
	frames      []frame // frames[head:] are in flight, oldest first
	head        int
	lastArrival time.Time
	closed      bool
	closeErr    error
	deadline    time.Time
	extra       time.Duration         // fault-injected added delay per frame
	throttles   []*faults.SlowBackend // host bandwidth caps; each frame draws its bytes

	wake    chan struct{} // buffered(1): new data / close / deadline change
	charge  func(time.Duration)
	bytesIn int64
}

func newFramePipe(cost PathCost, mtu int, charge func(time.Duration)) *framePipe {
	if mtu <= 0 {
		mtu = 64 * 1024
	}
	return &framePipe{cost: cost, mtu: mtu, wake: make(chan struct{}, 1), charge: charge}
}

func (p *framePipe) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// push appends f to the queue. Consumed slots ahead of head are reclaimed by
// sliding the live frames down once they are the larger part of a full
// backing array, so a queue that keeps draining reuses its capacity instead
// of allocating on every write.
func (p *framePipe) push(f frame) {
	if len(p.frames) == cap(p.frames) && p.head > len(p.frames)/2 {
		n := copy(p.frames, p.frames[p.head:])
		clear(p.frames[n:])
		p.frames, p.head = p.frames[:n], 0
	}
	p.frames = append(p.frames, f)
}

// pop releases the fully consumed head frame.
func (p *framePipe) pop() {
	p.frames[p.head].buf.Release()
	p.frames[p.head] = frame{}
	if p.head++; p.head == len(p.frames) {
		p.frames, p.head = p.frames[:0], 0
	}
}

// arrived reports whether f is readable, reading the clock into *now only
// for the first timed frame it meets.
func (f *frame) arrived(now *time.Time) bool {
	if f.at.IsZero() {
		return true
	}
	if now.IsZero() {
		*now = time.Now()
	}
	return !f.at.After(*now)
}

// write enqueues b, chunked into MTU frames, computing each frame's arrival
// per the path cost model: frames are paced by the accumulated per-hop
// processing plus serialization, then delayed by the propagation time.
//
// While nothing is modelled — a zero path cost, no injected delay, no
// bandwidth cap — a frame is readable the moment it is queued: it carries
// the zero arrival time and neither the write nor the read of it touches the
// clock. Order needs no clock either: read only ever looks at the head
// frame, so an untimed frame written behind a delayed one (a delay healed
// mid-stream) still waits its turn, and lastArrival is clamped up to now
// whenever timing resumes. The MTU only paces timed frames, so an untimed
// write is one frame, up to the largest pooled size: a reader can then take
// a whole PDU as sent (take).
func (p *framePipe) write(b []byte) (int, error) {
	return p.writeBufs([][]byte{b})
}

// writeBufs is the vectored write: the concatenation of bufs is chunked into
// pooled frames directly, so a header+payload send costs one copy total
// instead of an assembly copy plus a frame copy.
func (p *framePipe) writeBufs(bufs [][]byte) (int, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return 0, nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		err := p.closeErr
		if err == nil || err == io.EOF {
			err = errClosedPipe
		}
		return 0, err
	}
	timed := p.cost != (PathCost{}) || p.extra != 0 || len(p.throttles) != 0
	chunk := bufpool.MaxPooled
	if timed {
		chunk = p.mtu
		if now := time.Now(); p.lastArrival.Before(now) {
			p.lastArrival = now
		}
	}
	var processing time.Duration
	vi, vo := 0, 0 // cursor: bufs[vi][vo:] is the next unconsumed byte
	for remaining := total; remaining > 0; {
		n := min(remaining, chunk)
		fb := bufpool.Get(n)
		for fill := 0; fill < n; {
			for vo == len(bufs[vi]) {
				vi, vo = vi+1, 0
			}
			c := copy(fb.B[fill:], bufs[vi][vo:])
			fill += c
			vo += c
		}
		var at time.Time
		if timed {
			delay := p.cost.FrameDelay(n)
			processing += delay
			// Host bandwidth caps stretch the frame's serialization (queueing,
			// not processing — no CPU charge): the shared bucket may run a
			// debt, so a saturated host delays every flow crossing it.
			for _, th := range p.throttles {
				delay += th.Delay(n)
			}
			p.lastArrival = p.lastArrival.Add(delay)
			at = p.lastArrival.Add(p.cost.Propagation + p.extra)
		}
		p.push(frame{at: at, data: fb.B, buf: fb})
		remaining -= n
	}
	p.bytesIn += int64(total)
	p.mu.Unlock()
	if p.charge != nil {
		p.charge(processing)
	}
	p.signal()
	return total, nil
}

// read copies available bytes into b, blocking until the head frame's
// arrival time, new data, close, or the read deadline.
func (p *framePipe) read(b []byte) (int, error) {
	for {
		p.mu.Lock()
		if p.expired() {
			p.mu.Unlock()
			return 0, ErrTimeout
		}
		if p.head < len(p.frames) {
			var now time.Time
			if p.frames[p.head].arrived(&now) {
				n := 0
				// Drain as many arrived frames as fit.
				for n < len(b) && p.head < len(p.frames) && p.frames[p.head].arrived(&now) {
					f := &p.frames[p.head]
					c := copy(b[n:], f.data)
					n += c
					if c == len(f.data) {
						p.pop()
					} else {
						f.data = f.data[c:]
					}
				}
				p.mu.Unlock()
				return n, nil
			}
			wait := p.frames[p.head].at.Sub(now)
			deadline := p.deadline
			p.mu.Unlock()
			if err := p.sleep(wait, deadline); err != nil {
				return 0, err
			}
			continue
		}
		if err := p.awaitFrames(); err != nil {
			return 0, err
		}
	}
}

// take hands over the head frame's buffer when that frame is untimed and
// unread, blocking as read does while the queue is empty; more reports
// whether frames are still queued behind it. A nil buffer with a nil error
// means "read instead": the head frame is timed or partly read.
func (p *framePipe) take() (buf *bufpool.Buf, more bool, err error) {
	for {
		p.mu.Lock()
		if p.expired() {
			p.mu.Unlock()
			return nil, false, ErrTimeout
		}
		if p.head < len(p.frames) {
			if f := &p.frames[p.head]; f.at.IsZero() && len(f.data) == len(f.buf.B) {
				buf, f.buf = f.buf, nil // the caller's now: pop must not release it
				p.pop()
				more = p.head < len(p.frames)
			}
			p.mu.Unlock()
			return buf, more, nil
		}
		if err := p.awaitFrames(); err != nil {
			return nil, false, err
		}
	}
}

// expired reports whether the read deadline has passed. p.mu is held.
func (p *framePipe) expired() bool {
	return !p.deadline.IsZero() && !time.Now().Before(p.deadline)
}

// awaitFrames is a reader's wait on an empty queue: entered with p.mu held,
// it returns with the lock released — the close error (EOF for a clean
// close) once the pipe is closed, else nil when new data, a close or a
// deadline change wakes it, or ErrTimeout at the deadline.
func (p *framePipe) awaitFrames() error {
	if p.closed {
		err := p.closeErr
		p.mu.Unlock()
		if err == nil {
			err = io.EOF
		}
		return err
	}
	deadline := p.deadline
	p.mu.Unlock()
	return p.waitForWake(deadline)
}

// sleep waits for d, bounded by the deadline, interruptible by wake-ups.
// The final stretch spins (yielding) for microsecond precision: container
// kernels round timer sleeps up to a coarse tick that would otherwise
// swamp the modelled path costs.
func (p *framePipe) sleep(d time.Duration, deadline time.Time) error {
	if !deadline.IsZero() {
		until := time.Until(deadline)
		if until <= 0 {
			return ErrTimeout
		}
		if until < d {
			d = until
		}
	}
	const coarse = 2 * time.Millisecond
	target := time.Now().Add(d)
	if d > coarse {
		t := time.NewTimer(d - coarse)
		select {
		case <-t.C:
		case <-p.wake:
			t.Stop()
			return nil
		}
	}
	for time.Now().Before(target) {
		select {
		case <-p.wake:
			return nil
		default:
			runtime.Gosched()
		}
	}
	return nil
}

// waitForWake blocks until new data, close, or deadline.
func (p *framePipe) waitForWake(deadline time.Time) error {
	if deadline.IsZero() {
		<-p.wake
		return nil
	}
	until := time.Until(deadline)
	if until <= 0 {
		return ErrTimeout
	}
	t := time.NewTimer(until)
	defer t.Stop()
	select {
	case <-p.wake:
		return nil
	case <-t.C:
		return ErrTimeout
	}
}

// close marks the pipe closed. Pending frames remain readable; err (or EOF)
// is reported once drained.
func (p *framePipe) close(err error) {
	p.mu.Lock()
	p.closeLocked(err)
	p.mu.Unlock()
	p.signal()
}

// closeLocked is close for a caller that holds p.mu and signals afterwards.
func (p *framePipe) closeLocked(err error) {
	if !p.closed {
		p.closed = true
		p.closeErr = err
	}
}

// setExtra installs the fault-injected per-frame delay (0 removes it).
// Frames already in flight keep their computed arrival times.
func (p *framePipe) setExtra(d time.Duration) {
	p.mu.Lock()
	p.extra = d
	p.mu.Unlock()
}

// setThrottles installs the host bandwidth caps future frames draw from
// (nil removes them). Frames already in flight keep their arrival times.
func (p *framePipe) setThrottles(ts []*faults.SlowBackend) {
	p.mu.Lock()
	p.throttles = ts
	p.mu.Unlock()
}

func (p *framePipe) setDeadline(t time.Time) {
	p.mu.Lock()
	p.deadline = t
	p.mu.Unlock()
	p.signal()
}

func (p *framePipe) bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytesIn
}

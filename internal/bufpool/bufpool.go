// Package bufpool provides size-classed pooled byte buffers for the data
// path. Every per-command unit of the fast path — PDU wire images, Data-In
// assembly, R2T transfer staging, netsim frames, journal entries, write-back
// items — moves payload-sized buffers that live for exactly one hop. Getting
// them from a size-classed sync.Pool instead of make([]byte, n) keeps the
// relay chain allocation-free in steady state, the property LightBox and
// Active Switching identify as the precondition for middle-boxes running at
// line rate.
//
// Ownership rule: a *Buf has exactly one owner at a time. Whoever holds it
// either passes it on (transferring ownership) or calls Release exactly once.
// After Release the buffer contents must not be touched. See DESIGN.md
// ("Data-path buffer ownership") for how the iSCSI/relay layers apply this.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two. Requests below the smallest class still
// consume a smallest-class buffer; requests above the largest are satisfied
// with a plain allocation and dropped on Release.
const (
	minClassBits = 9  // 512 B — one block
	maxClassBits = 22 // 4 MiB — covers MaxBurstLength-sized staging
	numClasses   = maxClassBits - minClassBits + 1
)

// MaxPooled is the largest request Get serves from a pool.
const MaxPooled = 1 << maxClassBits

// Buf is a pooled buffer. B is the usable slice (len == requested size); the
// box itself recycles with the buffer so steady-state Get/Release performs no
// allocation at all.
type Buf struct {
	B     []byte
	class int8 // -1: not pooled (oversized); otherwise class index
}

var pools [numClasses]sync.Pool

// Stats counters (atomic; read via Snapshot).
var (
	gets      atomic.Int64
	misses    atomic.Int64
	oversized atomic.Int64
)

// classFor returns the class index for a request of n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > 1<<maxClassBits {
		return -1
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// Get returns a buffer with len(B) == n. The contents are unspecified (not
// zeroed): callers that expose the buffer before overwriting it must clear
// it themselves.
func Get(n int) *Buf {
	if n <= 0 {
		return &Buf{B: nil, class: -1}
	}
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		oversized.Add(1)
		return &Buf{B: make([]byte, n), class: -1}
	}
	if v := pools[c].Get(); v != nil {
		b := v.(*Buf)
		b.B = b.B[:cap(b.B)][:n]
		return b
	}
	misses.Add(1)
	return &Buf{B: make([]byte, 1<<(uint(c)+minClassBits))[:n], class: int8(c)}
}

// GetZeroed is Get with the returned bytes cleared, for callers that may
// expose unwritten regions (e.g. partially-filled read buffers).
func GetZeroed(n int) *Buf {
	b := Get(n)
	clear(b.B)
	return b
}

// Release returns the buffer to its pool. Releasing a nil *Buf is a no-op so
// callers can release unconditionally on error paths.
func (b *Buf) Release() {
	if b == nil || b.class < 0 {
		return
	}
	pools[b.class].Put(b)
}

// Snapshot reports cumulative pool activity: total Gets, pool misses (new
// allocations), and oversized requests that bypassed the pool.
func Snapshot() (total, missed, over int64) {
	return gets.Load(), misses.Load(), oversized.Load()
}

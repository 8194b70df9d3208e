package iscsi

import (
	"fmt"
	"io"

	"repro/internal/bufpool"
)

// readerBufSize is the PDUReader's internal staging window. 64 KiB covers a
// BHS plus a typical data segment in one underlying read, and back-to-back
// small PDUs (R2T + Data-Out trains, batched responses) decode from a single
// fill without touching the connection again.
const readerBufSize = 64 * 1024

// frameTaker is a stream that can hand over what one peer write sent as a
// whole pooled frame instead of copying it out through Read (netsim.Conn
// while nothing is modelled on its path). A nil frame with a nil error means
// "Read instead"; more reports whether further frames are queued behind it.
type frameTaker interface {
	TakeFrame() (frame *bufpool.Buf, more bool, err error)
}

// PDUReader decodes PDUs from a stream through a pooled staging buffer so
// that each PDU costs at most one underlying read (the bare ReadPDU function
// costs two: header, then data). On simulated fabrics every read is a
// rendezvous with the peer's write, so halving the read count halves the
// synchronization on the wire hot path. Data segments are still handed out in
// their own pooled buffers with the usual single-owner Release contract.
//
// When the stream offers whole frames (frameTaker) the reader takes one in
// place of every read into an empty window. A frame holding exactly one PDU
// becomes that PDU: its data segment is a sub-slice of the frame and the
// frame is the segment's pooled buffer, so the payload is never copied on
// receive. Any other frame — several PDUs, a header alone — is the window
// itself until it is decoded.
//
// PDUReader is not safe for concurrent use; each connection read loop owns
// one. Close releases the staging buffer.
type PDUReader struct {
	r        io.Reader
	ft       frameTaker   // r, when it offers whole frames
	buf      *bufpool.Buf // staging
	frame    *bufpool.Buf // a taken frame serving as the window, or nil
	win      []byte       // the window: frame.B when taken, else buf.B
	pos, end int          // win[pos:end] is undecoded
	more     bool         // the last frame taken had frames queued behind it
	pdu      PDU          // the PDU ReadPDU hands out; see there
}

// NewPDUReader wraps a connection in a buffered PDU decoder.
func NewPDUReader(r io.Reader) *PDUReader {
	pr := &PDUReader{r: r, buf: bufpool.Get(readerBufSize)}
	pr.win = pr.buf.B
	pr.ft, _ = r.(frameTaker)
	return pr
}

// Close returns the staging buffer, and any frame still held, to the pool.
// The reader must not be used afterwards.
func (pr *PDUReader) Close() {
	pr.frame.Release()
	pr.frame = nil
	if pr.buf != nil {
		pr.buf.Release()
		pr.buf = nil
	}
}

func (pr *PDUReader) buffered() int { return pr.end - pr.pos }

// Buffered reports whether further input is queued: the undecoded bytes in
// the window, plus one while the last frame taken had frames behind it. A
// zero return after ReadPDU means no further input had arrived when the last
// fill ran — read loops use it to detect a quiet connection and run work
// inline.
func (pr *PDUReader) Buffered() int {
	n := pr.buffered()
	if pr.more {
		n++
	}
	return n
}

// dropFrame releases the taken frame and points the window back at the
// (empty) staging buffer.
func (pr *PDUReader) dropFrame() {
	pr.frame.Release()
	pr.frame, pr.win, pr.pos, pr.end = nil, pr.buf.B, 0, 0
}

// fill brings in more input. An empty window takes a whole frame when the
// stream offers one; otherwise the undecoded bytes move to the front of the
// staging buffer and the stream is read once. It returns nil whenever at
// least one new byte arrived.
func (pr *PDUReader) fill() error {
	if pr.frame != nil {
		// A header runs past the taken frame: stage the tail (under BHSLen
		// bytes, since only need(BHSLen) fills) and read the rest.
		n := copy(pr.buf.B, pr.win[pr.pos:pr.end])
		pr.dropFrame()
		pr.end = n
	} else if pr.pos > 0 {
		copy(pr.buf.B, pr.buf.B[pr.pos:pr.end])
		pr.end -= pr.pos
		pr.pos = 0
	}
	if pr.end == 0 && pr.ft != nil {
		f, more, err := pr.ft.TakeFrame()
		if err != nil {
			return err
		}
		if f != nil {
			pr.frame, pr.win, pr.end, pr.more = f, f.B, len(f.B), more
			return nil
		}
	}
	pr.more = false
	n, err := pr.r.Read(pr.win[pr.end:])
	pr.end += n
	if n > 0 {
		return nil
	}
	if err != nil {
		return err
	}
	return io.ErrNoProgress
}

// need blocks until at least n bytes are buffered. A clean EOF on a PDU
// boundary surfaces as io.EOF; EOF mid-header is unexpected.
func (pr *PDUReader) need(n int) error {
	for pr.buffered() < n {
		if err := pr.fill(); err != nil {
			if err == io.EOF && pr.buffered() > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// ReadPDU reads one PDU. A taken frame holding exactly this PDU becomes its
// data segment's buffer; small data segments copy out of the window;
// segments extending past it are read directly into the PDU's pooled buffer,
// so large transfers don't pay a double copy.
//
// The returned PDU is the reader's own and is overwritten by the next
// ReadPDU: a read loop consumes it (the typed Parse…Into views, which copy
// the header fields out) before reading on, and never hands the pointer to
// another goroutine. What may outlive it is the data segment, which is
// pooled and single-owner as before — Release it once consumed, or move it
// out with TakeData before the next ReadPDU if a command keeps it.
func (pr *PDUReader) ReadPDU() (*PDU, error) {
	if err := pr.need(BHSLen); err != nil {
		return nil, err
	}
	p := &pr.pdu
	*p = PDU{}
	copy(p.BHS[:], pr.win[pr.pos:pr.pos+BHSLen])
	pr.pos += BHSLen
	if ahs := p.BHS[4]; ahs != 0 {
		return nil, fmt.Errorf("iscsi: additional header segments unsupported (TotalAHSLength=%d)", ahs)
	}
	n := p.DataSegmentLength()
	if n > MaxDataSegment {
		return nil, fmt.Errorf("iscsi: data segment length %d exceeds protocol maximum", n)
	}
	if n > 0 {
		padded := pad4(n)
		if pr.frame != nil && pr.pos == BHSLen && pr.end == BHSLen+padded {
			p.Data, p.dataBuf = pr.win[BHSLen:BHSLen+n], pr.frame
			pr.frame = nil // the PDU's now: dropFrame only resets the window
			pr.dropFrame()
			return p, nil
		}
		buf := bufpool.Get(padded)
		have := min(pr.buffered(), padded)
		copy(buf.B[:have], pr.win[pr.pos:pr.pos+have])
		pr.pos += have
		if have < padded {
			if _, err := io.ReadFull(pr.r, buf.B[have:padded]); err != nil {
				buf.Release()
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, fmt.Errorf("iscsi: read data segment: %w", err)
			}
		}
		p.Data = buf.B[:n]
		p.dataBuf = buf
	}
	if pr.frame != nil && pr.pos == pr.end {
		pr.dropFrame()
	}
	return p, nil
}

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

// PDUReader decodes PDUs from a stream through a pooled staging buffer so
// that each PDU costs at most one underlying read (the bare ReadPDU function
// costs two: header, then data). On simulated fabrics every read is a
// rendezvous with the peer's write, so halving the read count halves the
// synchronization on the wire hot path. Data segments are still handed out in
// their own pooled buffers with the usual single-owner Release contract.
//
// PDUReader is not safe for concurrent use; each connection read loop owns
// one. Close releases the staging buffer.
type PDUReader struct {
	r        io.Reader
	buf      *bufpool.Buf
	pos, end int
	pdu      PDU // the PDU ReadPDU hands out; see there
}

// NewPDUReader wraps a connection in a buffered PDU decoder.
func NewPDUReader(r io.Reader) *PDUReader {
	return &PDUReader{r: r, buf: bufpool.Get(readerBufSize)}
}

// Close returns the staging buffer to the pool. The reader must not be used
// afterwards.
func (pr *PDUReader) Close() {
	if pr.buf != nil {
		pr.buf.Release()
		pr.buf = nil
	}
}

func (pr *PDUReader) buffered() int { return pr.end - pr.pos }

// Buffered reports how many undecoded bytes are staged. A zero return after
// ReadPDU means no further input had arrived when the last fill ran — read
// loops use it to detect a quiet connection and run work inline.
func (pr *PDUReader) Buffered() int { return pr.buffered() }

// fill compacts the window and reads once from the stream. It returns nil
// whenever at least one new byte arrived.
func (pr *PDUReader) fill() error {
	if pr.pos > 0 {
		copy(pr.buf.B, pr.buf.B[pr.pos:pr.end])
		pr.end -= pr.pos
		pr.pos = 0
	}
	n, err := pr.r.Read(pr.buf.B[pr.end:])
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

// ReadPDU reads one PDU. Small data segments copy out of the staging window;
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
	copy(p.BHS[:], pr.buf.B[pr.pos:pr.pos+BHSLen])
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
		buf := bufpool.Get(padded)
		have := pr.buffered()
		if have > padded {
			have = padded
		}
		copy(buf.B[:have], pr.buf.B[pr.pos:pr.pos+have])
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
	return p, nil
}

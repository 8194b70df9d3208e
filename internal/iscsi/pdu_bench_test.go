package iscsi

import (
	"bytes"
	"io"
	"testing"
)

// discardBuffers exercises the vectored WriteTo path (what netsim.Conn
// provides on the real fabric).
type discardBuffers struct{ n int64 }

func (d *discardBuffers) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

func (d *discardBuffers) WriteBuffers(bufs ...[]byte) (int, error) {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	d.n += int64(n)
	return n, nil
}

// BenchmarkPDUWriteTo64K serializes a 64 KiB data PDU to a plain io.Writer
// (pooled single-buffer assembly path).
func BenchmarkPDUWriteTo64K(b *testing.B) {
	p := &PDU{}
	p.setDataSegment(make([]byte, 64*1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDUWriteToVectored64K serializes the same PDU through the
// vectored BuffersWriter interface — no assembly buffer at all.
func BenchmarkPDUWriteToVectored64K(b *testing.B) {
	p := &PDU{}
	p.setDataSegment(make([]byte, 64*1024))
	var w discardBuffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.WriteTo(&w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeWrite4K builds a fresh SCSI write command PDU per op (the
// pre-fast-path session behavior).
func BenchmarkEncodeWrite4K(b *testing.B) {
	data := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd := &SCSICommand{
			Final: true, Write: true, ITT: uint32(i),
			ExpectedDataTransferLength: 4096,
			Data:                       data,
		}
		if cmd.EncodeInto(&PDU{}) == nil {
			b.Fatal("nil PDU")
		}
	}
}

// BenchmarkEncodeIntoWrite4K reuses one wire PDU across ops, the way
// initiator and target sessions now frame every hot-path message.
func BenchmarkEncodeIntoWrite4K(b *testing.B) {
	data := make([]byte, 4096)
	var wire PDU
	cmd := &SCSICommand{
		Final: true, Write: true,
		ExpectedDataTransferLength: 4096,
		Data:                       data,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd.ITT = uint32(i)
		if cmd.EncodeInto(&wire) == nil {
			b.Fatal("nil PDU")
		}
	}
}

// BenchmarkReadPDU64K decodes a 64 KiB Data-In PDU from a stream, releasing
// the pooled segment each op (steady-state read loop).
func BenchmarkReadPDU64K(b *testing.B) {
	din := &DataIn{Final: true, ITT: 7, Data: make([]byte, 64*1024)}
	wire := wireOf(din.EncodeInto(&PDU{}))
	r := bytes.NewReader(wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(wire)
		p, err := ReadPDU(r)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}

package initiator

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/iscsi"
	"repro/internal/obs"
	"repro/internal/scsi"
)

// adminRead issues a small read-direction admin command, allocating the
// response buffer (cold path; the data-path reads go through ReadInto).
func (s *Session) adminRead(cdb *scsi.CDB, n int) ([]byte, error) {
	buf := make([]byte, n)
	got, err := s.execRead(cdb, buf, obs.SpanContext{})
	if err != nil {
		return nil, err
	}
	return buf[:got], nil
}

// Capacity queries the device geometry with READ CAPACITY(10), escalating
// to READ CAPACITY(16) for large devices per SBC-3.
func (s *Session) Capacity() (scsi.Capacity, error) {
	data, err := s.adminRead(scsi.NewReadCapacity10(), 8)
	if err != nil {
		return scsi.Capacity{}, err
	}
	cap10, err := scsi.DecodeCapacity10(data)
	if err != nil {
		return scsi.Capacity{}, err
	}
	if cap10.LastLBA != 0xFFFFFFFF {
		return cap10, nil
	}
	data, err = s.adminRead(scsi.NewReadCapacity16(), 32)
	if err != nil {
		return scsi.Capacity{}, err
	}
	return scsi.DecodeCapacity16(data)
}

// Flush issues SYNCHRONIZE CACHE over the whole medium.
func (s *Session) Flush() error {
	_, err := s.adminRead(scsi.NewSyncCache(0, 0), 0)
	return err
}

// Logout ends the session gracefully and closes every connection (a session
// logout on the leading connection closes the whole MC/S set). The session
// is terminal afterwards: no secondary reattaches.
func (s *Session) Logout() error {
	s.mu.Lock()
	s.cmdSN++
	lead := s.conns[0]
	req := &iscsi.LogoutRequest{Reason: 0, ITT: s.itt + 1, CmdSN: s.cmdSN, ExpStatSN: lead.expStatSN}
	conns := append([]*sconn(nil), s.conns...)
	s.mu.Unlock()
	err := s.send(lead, req.Encode())
	s.mu.Lock()
	if s.closedErr == nil {
		s.closedErr = ErrSessionClosed
	}
	s.mu.Unlock()
	<-lead.done
	var cerr error
	for _, sc := range conns {
		e := sc.conn.Close()
		if sc == lead {
			cerr = e
		}
	}
	for _, sc := range conns {
		<-sc.done
	}
	if err != nil {
		return err
	}
	return cerr
}

// Close abandons the session, failing outstanding commands and closing every
// connection. No reconnect is attempted.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closedErr == nil {
		s.closedErr = ErrSessionClosed
	}
	conns := append([]*sconn(nil), s.conns...)
	s.mu.Unlock()
	var err error
	for i, sc := range conns {
		e := sc.conn.Close()
		if i == 0 {
			err = e
		}
	}
	for _, sc := range conns {
		<-sc.done
	}
	return err
}

// Device adapts a session to the blockdev.Device interface so upper layers
// (file systems, databases, workloads) can use a remote volume exactly like
// a local disk — this is the virtual block device a tenant VM sees.
type Device struct {
	sess      *Session
	blockSize int
	blocks    uint64
}

var _ blockdev.Device = (*Device)(nil)

// OpenDevice queries the session's capacity and returns a device view.
func OpenDevice(sess *Session) (*Device, error) {
	c, err := sess.Capacity()
	if err != nil {
		return nil, fmt.Errorf("initiator: read capacity: %w", err)
	}
	if c.BlockSize == 0 {
		return nil, fmt.Errorf("initiator: target reported zero block size")
	}
	return &Device{sess: sess, blockSize: int(c.BlockSize), blocks: c.Blocks()}, nil
}

// Session returns the underlying session.
func (d *Device) Session() *Session { return d.sess }

// BlockSize implements blockdev.Device.
func (d *Device) BlockSize() int { return d.blockSize }

// Blocks implements blockdev.Device.
func (d *Device) Blocks() uint64 { return d.blocks }

// ReadAt implements blockdev.Device. Data-In segments land directly in p —
// no staging buffer or assembly copy.
func (d *Device) ReadAt(p []byte, lba uint64) error {
	if len(p) == 0 || len(p)%d.blockSize != 0 {
		return blockdev.ErrBadLength
	}
	n, err := d.sess.ReadInto(p, lba, uint32(len(p)/d.blockSize), d.blockSize)
	if err != nil {
		return err
	}
	if n != len(p) {
		return fmt.Errorf("initiator: short read: %d of %d bytes", n, len(p))
	}
	return nil
}

// WriteAt implements blockdev.Device.
func (d *Device) WriteAt(p []byte, lba uint64) error {
	if len(p) == 0 || len(p)%d.blockSize != 0 {
		return blockdev.ErrBadLength
	}
	return d.sess.Write(lba, p, d.blockSize)
}

// Flush implements blockdev.Device.
func (d *Device) Flush() error { return d.sess.Flush() }

// Close implements blockdev.Device by logging out the session.
func (d *Device) Close() error { return d.sess.Logout() }

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/extfs"
)

// timedDev times every block I/O the file system issues: on monitor_fs an
// "op" is one of these, not a file operation.
type timedDev struct {
	blockdev.Device
	rec *recorder
}

func (d *timedDev) ReadAt(p []byte, lba uint64) error {
	start := time.Now()
	err := d.Device.ReadAt(p, lba)
	d.rec.readNs = append(d.rec.readNs, int64(time.Since(start)))
	if err != nil {
		d.rec.fail(err)
	}
	return err
}

func (d *timedDev) WriteAt(p []byte, lba uint64) error {
	start := time.Now()
	err := d.Device.WriteAt(p, lba)
	d.rec.writeNs = append(d.rec.writeNs, int64(time.Since(start)))
	if err != nil {
		d.rec.fail(err)
	}
	return err
}

// PostMark-style bounds (Figure 11's workload): small files in a pool whose
// size creates and deletes hold where set-up left it, so the directory and
// the mix of block I/Os per transaction do not drift with the seed.
const (
	fileMinBytes = 512
	fileMaxBytes = 16 * 1024
	fileCapBytes = 64 * 1024 // appends stop growing a file here
	poolFiles    = 200
	fileDir      = "/postmark"
)

type pooledFile struct {
	id   int
	size int
}

// fileClient is the single closed-loop file client: half its transactions
// touch data (read or append), half churn the namespace (a delete, then the
// create that refills the pool). File contents are a window into a seeded ring, so every read is
// checked without keeping a copy of each file.
type fileClient struct {
	fs      *extfs.FS
	rng     *rand.Rand
	ring    []byte
	pool    []pooledFile
	nextID  int
	scratch []byte
	rec     *recorder

	creates, deletes, mkdirs int
}

func newFileClient(fs *extfs.FS, seed int64, rec *recorder) (*fileClient, error) {
	c := &fileClient{
		fs:      fs,
		rng:     rand.New(rand.NewSource(seed*1000003 + 7)),
		ring:    make([]byte, 64*1024),
		scratch: make([]byte, fileCapBytes+fileMaxBytes),
		rec:     rec,
	}
	c.rng.Read(c.ring)
	if err := fs.Mkdir(fileDir); err != nil {
		return nil, err
	}
	c.mkdirs++
	for len(c.pool) < poolFiles {
		if err := c.create(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *fileClient) path(id int) string { return fmt.Sprintf("%s/f%06d", fileDir, id) }

// content fills p with file id's bytes [off, off+len(p)).
func (c *fileClient) content(p []byte, id, off int) {
	at := (id*977 + off) % len(c.ring)
	for n := 0; n < len(p); {
		k := copy(p[n:], c.ring[at:])
		n += k
		at = 0
	}
}

func (c *fileClient) randSize() int { return fileMinBytes + c.rng.Intn(fileMaxBytes-fileMinBytes) }

func (c *fileClient) create() error {
	f := pooledFile{id: c.nextID, size: c.randSize()}
	c.nextID++
	data := c.scratch[:f.size]
	c.content(data, f.id, 0)
	if err := c.fs.WriteFile(c.path(f.id), data); err != nil {
		return err
	}
	c.pool = append(c.pool, f)
	c.creates++
	return nil
}

// step runs one transaction. File-level failures (as opposed to failed
// block I/Os, which timedDev counts) are integrity failures.
func (c *fileClient) step() {
	i := c.rng.Intn(len(c.pool))
	f := &c.pool[i]
	touchData := c.rng.Intn(2) == 0
	grow := c.rng.Intn(2) == 0
	switch {
	case touchData && (!grow || f.size >= fileCapBytes):
		got, err := c.fs.ReadFile(c.path(f.id))
		if err != nil {
			c.rec.fail(err)
			return
		}
		want := c.scratch[:f.size]
		c.content(want, f.id, 0)
		if !bytes.Equal(got, want) {
			c.rec.fail(errIntegrity)
		}
	case touchData:
		data := c.scratch[:c.randSize()/4]
		c.content(data, f.id, f.size)
		if err := c.fs.Append(c.path(f.id), data); err != nil {
			c.rec.fail(err)
			return
		}
		f.size += len(data)
	case len(c.pool) < poolFiles:
		if err := c.create(); err != nil {
			c.rec.fail(err)
		}
	default:
		if err := c.fs.Remove(c.path(f.id)); err != nil {
			c.rec.fail(err)
			return
		}
		c.pool[i] = c.pool[len(c.pool)-1]
		c.pool = c.pool[:len(c.pool)-1]
		c.deletes++
	}
}

func (c *fileClient) run(d time.Duration) time.Duration {
	start := time.Now()
	for time.Since(start) < d {
		c.step()
	}
	return time.Since(start)
}

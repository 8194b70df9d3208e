// Package wal is the crash-durable backing store for the middle-box
// journal: a segmented, file-backed write-ahead log standing in for the
// NVRAM the paper's active relay journals early-acknowledged writes to
// (Section III-B). Every record is length-prefixed and CRC32C-protected
// and carries a monotonic sequence number; appends become durable through
// an fsync (window 0 syncs each append on its own; a configured window
// batches the appends landing inside it into one sync), commits are
// buffered markers that let whole segments be compacted away once every
// append they hold has been applied, and Open replays the surviving records
// after a crash — tolerating a torn final record while refusing (with
// ErrCorrupt) logs damaged anywhere else.
//
// On-disk layout: dir/NNNNNNNN.seg files with contiguous indices. Each
// record is
//
//	| payload length uint32 | crc32c(payload) uint32 | payload |
//
// (little-endian), where payload starts with a one-byte type and the
// record's sequence number:
//
//	meta:   attrs as JSON — written first in every segment so compaction
//	        can drop old segments without losing the log's identity
//	append: LBA uint64 followed by the write data
//	commit: nothing further — the append with this seq reached the backend
//
// A crash can only tear the tail of the newest segment: record writes go
// in order at the segment's tail and fsync covers the whole file, so the
// durable image is always a prefix of what was written, and a record write
// that fails part-way is cut back before anything follows it. Recovery
// leans on exactly that — an unreadable record mid-log means corruption,
// not a crash.
//
// Compaction keeps one retired segment as a spare (dir/spare, a name Open
// never reads): zero-filled and synced, it becomes the next segment at
// rotation, so records overwrite pages the file already holds instead of
// growing a new file. Rotation cuts the outgoing segment back to its
// written size and Close does the same to the current one, so the zero
// residue of a spare can only ever trail the final segment — the shape of
// a torn tail Open already truncates.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/xerr"
)

// ErrCorrupt reports damage recovery cannot attribute to a torn final
// write: a bad record with more log after it, an impossible length, or a
// sequence regression. Callers must treat the log as unrecoverable rather
// than trust any suffix.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed reports use of a closed (or crash-killed) log.
var ErrClosed = errors.New("wal: log closed")

// ErrNoSegments reports an Open of a directory holding no segment files: a
// log that was never durably created (a crash between the directory's
// creation and its first segment write), as opposed to a damaged one.
// Nothing was ever acknowledged from such a log, so callers may treat it as
// empty.
var ErrNoSegments = errors.New("wal: no segments")

// ErrWALFull reports that the log's disk space is exhausted — a real ENOSPC
// from the filesystem or a configured Quota that can't cover the record —
// and a segment-reclaim attempt freed nothing. Classed Exhausted: retrying
// helps only after commits release segments or the operator adds space.
var ErrWALFull = xerr.New(xerr.Exhausted, "wal: log full")

// ErrUnwritable reports that the log directory refuses writes (permissions,
// read-only mount) — an environment problem, not damage, so it is distinct
// from ErrCorrupt and ErrNoSegments and classed Terminal: no retry against
// this directory can succeed.
var ErrUnwritable = xerr.New(xerr.Terminal, "wal: directory unwritable")

// Quota bounds the log's on-disk footprint for fault injection: every
// record write first charges its framed size, and compaction refunds
// reclaimed segments. *faults.DiskFull satisfies it.
type Quota interface {
	// Consume charges n bytes, failing (without charging) when the budget
	// can't cover them.
	Consume(n uint64) error
	// Release refunds n bytes.
	Release(n uint64)
}

// Record types.
const (
	recMeta   byte = 1
	recAppend byte = 2
	recCommit byte = 3
)

// recHeaderSize is the fixed per-record header: length + CRC. A record's
// payload opens with its type byte and its sequence number; recBody is
// where the rest starts, counted from the record's first byte.
const (
	recHeaderSize = 8
	recBody       = recHeaderSize + 1 + 8
)

// maxRecordBytes bounds a single record's payload; anything larger in a
// header is corruption, not a real record.
const maxRecordBytes = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta identifies a log to its recovery consumer: free-form attributes
// written at the head of every segment (the middle-box relay stores the
// backend IQN and next-hop address so a replacement instance knows where
// to replay).
type Meta struct {
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Record is one unapplied append returned by recovery.
type Record struct {
	Seq  uint64
	LBA  uint64
	Data []byte
}

// Recovery is what Open found on disk.
type Recovery struct {
	// Records are the appends with no commit marker, in sequence order —
	// the acknowledged writes whose delivery the crash cut off.
	Records []Record
	// Meta is the log identity from the oldest surviving segment.
	Meta Meta
	// Torn reports that the final record was partially written and has
	// been truncated away.
	Torn bool
	// TruncatedBytes is how much tail the torn-record cleanup removed.
	TruncatedBytes int64
}

// Options tunes a log.
type Options struct {
	// SegmentBytes caps each segment file (default 1 MiB). Appends larger
	// than the cap get a segment of their own.
	SegmentBytes int
	// SyncWindow is the group-commit window: an append becomes durable at
	// the next fsync, which the syncer issues at most once per window, so
	// concurrent appends share one disk flush at the cost of up to one
	// window of added ack latency. 0 syncs inline on every append: the
	// record write and its fsync run under the same mutex, so each append
	// pays its own fsync and none rides another's.
	SyncWindow time.Duration
	// Quota, when set, bounds the log's on-disk bytes: record writes that
	// the budget can't cover fail with ErrWALFull after a reclaim attempt.
	// Used by overload experiments to drive deterministic disk-full.
	Quota Quota
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// Log is an open write-ahead log.
type Log struct {
	dir  string
	opts Options
	meta Meta

	mu       sync.Mutex
	f        *os.File
	firstSeg int
	curSeg   int
	curSize  int64 // bytes of records in the current segment
	curFile  int64 // its file's size: curSize, or more when it reuses a spare
	nextSeq  uint64
	live     map[int]int    // segment index -> appends not yet committed
	sizes    map[int]int64  // segment index -> bytes, for segments before curSeg
	segOf    map[uint64]int // append seq -> segment holding it
	closed   bool
	metaJSON []byte // the meta record's attrs, encoded once

	// prev is segment curSeg-1, kept open after rotation so that compaction
	// can retire it into the spare without reopening it. spare is a retired
	// segment, zero-filled and synced under sparePath, that the next
	// rotation renames into place; spareSize is its length.
	prev      *os.File
	spare     *os.File
	spareSize int64
	sparePath string

	// Group commit: writeIdx counts records written, syncIdx the highest
	// writeIdx covered by an fsync. Appenders wait until syncIdx reaches
	// their record; the window syncer (or an inline sync at window 0)
	// advances it.
	syncCond  *sync.Cond
	writeIdx  uint64
	syncIdx   uint64
	syncErr   error
	dirty     bool
	syncerNow chan struct{} // wakes the window syncer
	syncerWG  sync.WaitGroup

	fsyncs    *obs.Counter
	appends   *obs.Counter
	compacted *obs.Counter
	segGauge  *obs.Gauge
}

// Create initializes a fresh log in dir (created if missing; must hold no
// existing segments) and writes the meta record durably before returning.
func Create(dir string, meta Meta, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		if isPermission(err) {
			return nil, fmt.Errorf("%w: create %s: %v", ErrUnwritable, dir, err)
		}
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	if segs, err := listSegments(dir); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		return nil, fmt.Errorf("wal: create %s: log already exists (use Open)", dir)
	}
	l := newLog(dir, meta, opts)
	if err := l.openSegment(0); err != nil {
		return nil, err
	}
	if err := l.writeMetaLocked(); err != nil {
		_ = l.f.Close()
		return nil, err
	}
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close()
		return nil, fmt.Errorf("wal: sync meta: %w", err)
	}
	l.startSyncer()
	return l, nil
}

// Open recovers an existing log directory: it scans every segment in
// order, verifies record framing and checksums, truncates a torn final
// record, and returns the log (ready for further appends) together with
// the unapplied records. A log damaged anywhere but the torn tail yields
// ErrCorrupt and no log.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, ErrNoSegments)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, nil, fmt.Errorf("%w: segment gap %d -> %d", ErrCorrupt, segs[i-1], segs[i])
		}
	}
	// Probe writability up front: a read-only directory can still let the
	// current segment reopen for append (file permissions, not directory
	// ones, govern that), which would defer the failure to the first
	// rotation. Surfacing ErrUnwritable here keeps "bad permissions" from
	// ever being mistaken for corruption mid-run.
	if err := checkWritable(dir); err != nil {
		return nil, nil, err
	}
	rec := &Recovery{}
	pending := make(map[uint64]Record)
	segOf := make(map[uint64]int)
	sizes := make(map[int]int64)
	// Append contiguity and the commit high-water mark are tracked apart:
	// a surviving segment can legitimately open with a commit whose seq is
	// below the next surviving append (a commit-triggered rotation whose
	// older segments compacted away), so commits must never feed the
	// append-gap check — they only floor where new sequence numbers resume.
	var lastAppend, maxCommit uint64
	haveMeta := false
	for i, seg := range segs {
		final := i == len(segs)-1
		if !final {
			// Every live segment starts with a durable meta record; an
			// empty non-final segment means its contents were destroyed.
			if fi, err := os.Stat(segPath(dir, seg)); err == nil {
				if fi.Size() == 0 {
					return nil, nil, fmt.Errorf("%w: empty non-final segment %d", ErrCorrupt, seg)
				}
				sizes[seg] = fi.Size()
			}
		}
		keep, err := scanSegment(segPath(dir, seg), final, func(typ byte, seq uint64, payload []byte) error {
			switch typ {
			case recMeta:
				if !haveMeta {
					if err := json.Unmarshal(payload, &rec.Meta); err != nil {
						return fmt.Errorf("%w: meta record: %v", ErrCorrupt, err)
					}
					haveMeta = true
				}
			case recAppend:
				// Appends take consecutive seqs and compaction only drops
				// whole leading segments, so within the surviving log the
				// append seqs are contiguous; a gap means records were
				// silently lost (e.g. a mid-log truncation on a record
				// boundary), which torn-write semantics cannot explain.
				if lastAppend != 0 && seq != lastAppend+1 {
					return fmt.Errorf("%w: append seq %d after %d (gap or regression)", ErrCorrupt, seq, lastAppend)
				}
				lastAppend = seq
				if len(payload) < 8 {
					return fmt.Errorf("%w: short append payload", ErrCorrupt)
				}
				pending[seq] = Record{
					Seq:  seq,
					LBA:  binary.LittleEndian.Uint64(payload),
					Data: append([]byte(nil), payload[8:]...),
				}
				segOf[seq] = seg
			case recCommit:
				// A commit for a seq we never saw belongs to an append in
				// a segment compaction already removed — applied, gone.
				// It still advances the seq high-water mark: its append
				// preceded it in time, so seqs must resume above it.
				delete(pending, seq)
				delete(segOf, seq)
				if seq > maxCommit {
					maxCommit = seq
				}
			default:
				return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if keep >= 0 { // torn tail: truncate to the clean prefix
			fi, statErr := os.Stat(segPath(dir, seg))
			if statErr == nil {
				rec.TruncatedBytes += fi.Size() - keep
			}
			if err := os.Truncate(segPath(dir, seg), keep); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			rec.Torn = true
		}
	}

	l := newLog(dir, rec.Meta, opts)
	l.firstSeg = segs[0]
	l.curSeg = segs[len(segs)-1]
	l.nextSeq = lastAppend
	if maxCommit > l.nextSeq {
		l.nextSeq = maxCommit
	}
	for seq, seg := range segOf {
		l.segOf[seq] = seg
		l.live[seg]++
	}
	l.sizes = sizes
	f, err := os.OpenFile(segPath(dir, l.curSeg), os.O_WRONLY, 0o644)
	if err != nil {
		if isPermission(err) {
			return nil, nil, fmt.Errorf("%w: reopen segment: %v", ErrUnwritable, err)
		}
		return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	l.f, l.curSize, l.curFile = f, fi.Size(), fi.Size()
	l.segGauge.Set(int64(l.curSeg - l.firstSeg + 1))
	if l.curSize == 0 {
		// The torn-tail truncation ate the whole segment, meta record
		// included; re-stamp it so this segment stands alone if older
		// ones compact away.
		if err := l.writeMetaLocked(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: sync meta: %w", err)
		}
		l.syncIdx = l.writeIdx
	}

	rec.Records = make([]Record, 0, len(pending))
	for _, r := range pending {
		rec.Records = append(rec.Records, r)
	}
	sort.Slice(rec.Records, func(a, b int) bool { return rec.Records[a].Seq < rec.Records[b].Seq })
	l.startSyncer()
	return l, rec, nil
}

func newLog(dir string, meta Meta, opts Options) *Log {
	l := &Log{
		dir:       dir,
		opts:      opts.withDefaults(),
		meta:      meta,
		live:      make(map[int]int),
		sizes:     make(map[int]int64),
		segOf:     make(map[uint64]int),
		sparePath: filepath.Join(dir, "spare"),
		syncerNow: make(chan struct{}, 1),
		fsyncs:    obs.Default().Counter("wal.fsyncs"),
		appends:   obs.Default().Counter("wal.appends"),
		compacted: obs.Default().Counter("wal.segments_compacted"),
		segGauge:  obs.Default().Gauge("wal.segments"),
	}
	l.syncCond = sync.NewCond(&l.mu)
	return l
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curSeg - l.firstSeg + 1
}

// Pending returns the number of appended-but-uncommitted records.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segOf)
}

// Append writes one record and blocks until it is durable (fsynced). The
// returned sequence number is the handle Commit takes.
func (l *Log) Append(lba uint64, data []byte) (uint64, error) {
	seq, rec, _, err := l.AppendRetain(lba, data)
	rec.Release()
	return seq, err
}

// AppendRetain is Append handing the record's pooled buffer to the caller
// instead of releasing it: stable is the copy of data inside the record,
// valid until the caller releases rec. A caller that must keep the bytes
// until it commits (the middle-box journal) keeps this copy rather than
// making a second one. On error rec is nil.
func (l *Log) AppendRetain(lba uint64, data []byte) (seq uint64, rec *bufpool.Buf, stable []byte, err error) {
	rec = newRecord(recAppend, 8+len(data))
	binary.LittleEndian.PutUint64(rec.B[recBody:], lba)
	end := recBody + 8 + len(data)
	stable = rec.B[recBody+8 : end : end]
	copy(stable, data)
	if seq, err = l.append(rec.B); err != nil {
		rec.Release()
		return 0, nil, nil, err
	}
	return seq, rec, stable, nil
}

// append writes the framed append record rec and waits for its fsync.
func (l *Log) append(rec []byte) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	// The sequence number is consumed only once the record is written: a
	// failed write must leave nextSeq untouched, or the next successful
	// append would create an on-disk append-seq gap that Open (rightly)
	// rejects as corruption.
	seq := l.nextSeq + 1
	idx, err := l.writeRecordLocked(rec, seq)
	if err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.nextSeq = seq
	l.segOf[seq] = l.curSeg
	l.live[l.curSeg]++
	l.appends.Inc()
	err = l.waitDurableLocked(idx)
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// Commit marks an append applied. The marker is buffered — it rides the
// next fsync — because nothing external depends on its durability: losing
// a commit only means recovery replays an already-applied (idempotent)
// write. Fully applied segments older than the current one are deleted.
func (l *Log) Commit(seq uint64) error {
	rec := newRecord(recCommit, 0)
	defer rec.Release()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, ok := l.segOf[seq]; !ok {
		return fmt.Errorf("wal: commit of unknown seq %d", seq)
	}
	if _, err := l.writeRecordLocked(rec.B, seq); err != nil {
		return err
	}
	seg := l.segOf[seq]
	delete(l.segOf, seq)
	l.live[seg]--
	l.compactLocked()
	return nil
}

// Sync forces an fsync covering every record written so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.writeIdx <= l.syncIdx {
		return l.syncErr
	}
	return l.syncLocked()
}

// Close flushes and closes the log, leaving the directory for a later
// Open. The current segment is cut back to its records, so a clean Close
// never reopens torn, and the spare is deleted.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var syncErr error
	if l.f != nil && l.curFile > l.curSize {
		syncErr = l.cutBackLocked()
	}
	if l.writeIdx > l.syncIdx {
		if err := l.syncLocked(); syncErr == nil {
			syncErr = err
		}
	}
	l.closed = true
	l.syncCond.Broadcast()
	files := l.detachLocked()
	l.mu.Unlock()
	close(l.syncerNow)
	l.syncerWG.Wait()
	var closeErr error
	if files[0] != nil {
		closeErr = files[0].Close()
	}
	closeAll(files[1:])
	_ = os.Remove(l.sparePath)
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Kill simulates the process dying at this instant: in-flight and future
// appends fail without their fsync, nothing further reaches the file, and
// the directory is left exactly as the "crash" found it for a later Open.
func (l *Log) Kill() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	if l.syncErr == nil {
		l.syncErr = ErrClosed
	}
	l.syncCond.Broadcast()
	files := l.detachLocked()
	l.mu.Unlock()
	close(l.syncerNow)
	l.syncerWG.Wait()
	closeAll(files[:])
}

// detachLocked takes the log's open files off it: the current segment,
// the kept previous one and the spare, each nil when absent.
func (l *Log) detachLocked() [3]*os.File {
	files := [3]*os.File{l.f, l.prev, l.spare}
	l.f, l.prev, l.spare = nil, nil, nil
	return files
}

// closeAll closes every non-nil file in files.
func closeAll(files []*os.File) {
	for _, f := range files {
		if f != nil {
			_ = f.Close()
		}
	}
}

// Remove closes the log and deletes its directory — the journal applied
// everything and owes recovery nothing.
func (l *Log) Remove() error {
	_ = l.Close()
	return os.RemoveAll(l.dir)
}

// newRecord returns a pooled buffer for one record of type typ carrying n
// bytes after its sequence number, at rec.B[recBody:]; writeRecordLocked
// fills in the rest.
func newRecord(typ byte, n int) *bufpool.Buf {
	rec := bufpool.Get(recBody + n)
	rec.B[recHeaderSize] = typ
	return rec
}

// writeRecordLocked stamps seq into a newRecord buffer, frames it and
// writes it at the current segment's tail, rotating first when the record
// would overflow it and stamping the meta record first into an empty
// segment. Returns the record's write index for durability waits. Caller
// holds l.mu.
func (l *Log) writeRecordLocked(rec []byte, seq uint64) (uint64, error) {
	if l.f == nil {
		return 0, ErrClosed
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	need := int64(len(rec))
	if l.curSize > 0 && l.curSize+need > int64(l.opts.SegmentBytes) {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if l.curSize == 0 && rec[recHeaderSize] != recMeta {
		// Rotation leaves the new segment empty, and so does a meta write
		// that failed: either way the meta record goes first.
		if err := l.writeMetaLocked(); err != nil {
			return 0, err
		}
	}
	if q := l.opts.Quota; q != nil {
		if err := q.Consume(uint64(need)); err != nil {
			// Reclaim before surfacing: fully-committed leading segments may
			// still be on disk if an earlier compaction attempt hit an error;
			// dropping them refunds their bytes and may admit this record.
			l.compactLocked()
			if err := q.Consume(uint64(need)); err != nil {
				return 0, fmt.Errorf("%w: %d-byte record over quota: %w", ErrWALFull, need, err)
			}
		}
	}
	payload := rec[recHeaderSize:]
	binary.LittleEndian.PutUint64(payload[1:], seq)
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.f.WriteAt(rec, l.curSize); err != nil {
		if q := l.opts.Quota; q != nil {
			q.Release(uint64(need))
		}
		// The write may have stored part of the record. Cut it back, or the
		// next record lands after a fragment Open takes for corruption; if
		// that fails too, the log takes no more writes.
		if cut := l.cutBackLocked(); cut != nil {
			l.syncErr = fmt.Errorf("wal: after a failed write: %w", cut)
		}
		if errors.Is(err, syscall.ENOSPC) {
			return 0, fmt.Errorf("%w: %v", ErrWALFull, err)
		}
		return 0, fmt.Errorf("wal: write record: %w", err)
	}
	l.curSize += need
	l.curFile = max(l.curFile, l.curSize)
	l.writeIdx++
	l.dirty = true
	return l.writeIdx, nil
}

// cutBackLocked truncates the current segment's file to its records.
// Caller holds l.mu.
func (l *Log) cutBackLocked() error {
	if err := l.f.Truncate(l.curSize); err != nil {
		return fmt.Errorf("wal: cut back segment: %w", err)
	}
	l.curFile = l.curSize
	return nil
}

// writeMetaLocked writes the log's identity record to the current segment.
func (l *Log) writeMetaLocked() error {
	if l.metaJSON == nil {
		attrs, err := json.Marshal(l.meta)
		if err != nil {
			return fmt.Errorf("wal: encode meta: %w", err)
		}
		l.metaJSON = attrs
	}
	rec := newRecord(recMeta, len(l.metaJSON))
	defer rec.Release()
	copy(rec.B[recBody:], l.metaJSON)
	_, err := l.writeRecordLocked(rec.B, 0)
	return err
}

// rotateLocked cuts the current segment back to its records, syncs it and
// starts the next one, leaving it empty for writeRecordLocked to stamp the
// meta record into, so compaction of old segments never loses it.
func (l *Log) rotateLocked() error {
	if l.curFile > l.curSize {
		if err := l.cutBackLocked(); err != nil {
			return err
		}
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.sizes[l.curSeg] = l.curSize
	if l.prev != nil {
		// Segment curSeg-1 is still live: compaction deletes it by name.
		_ = l.prev.Close()
	}
	l.prev, l.f = l.f, nil
	return l.openSegment(l.curSeg + 1)
}

// openSegment makes segment idx current: the spare renamed into place when
// the log has one, else a new file. Caller holds l.mu (or owns the log
// exclusively during Create).
func (l *Log) openSegment(idx int) error {
	path := segPath(l.dir, idx)
	if f := l.spare; f != nil {
		l.spare = nil
		// syscall.Rename, not os.Rename: the latter stats the target first.
		if err := syscall.Rename(l.sparePath, path); err == nil {
			l.setCurrent(f, idx, l.spareSize)
			return nil
		}
		_ = f.Close()
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if isPermission(err) {
			return fmt.Errorf("%w: new segment: %v", ErrUnwritable, err)
		}
		if errors.Is(err, syscall.ENOSPC) {
			return fmt.Errorf("%w: new segment: %v", ErrWALFull, err)
		}
		return fmt.Errorf("wal: new segment: %w", err)
	}
	l.setCurrent(f, idx, 0)
	return nil
}

// setCurrent makes f, fileSize bytes long, the empty segment idx.
func (l *Log) setCurrent(f *os.File, idx int, fileSize int64) {
	l.f = f
	l.curSeg = idx
	l.curSize = 0
	l.curFile = fileSize
	l.segGauge.Set(int64(l.curSeg - l.firstSeg + 1))
}

// compactLocked drops leading segments whose appends are all committed
// (retireLocked). The current segment always survives. Caller holds l.mu.
func (l *Log) compactLocked() {
	for l.firstSeg < l.curSeg && l.live[l.firstSeg] == 0 {
		seg, size := l.firstSeg, l.sizes[l.firstSeg]
		if err := l.retireLocked(seg, size); err != nil {
			obs.Default().Eventf("wal", "compact %s segment %d: %v", l.dir, seg, err)
			return
		}
		if q := l.opts.Quota; q != nil {
			q.Release(uint64(size))
		}
		delete(l.live, seg)
		delete(l.sizes, seg)
		l.firstSeg++
		l.compacted.Inc()
	}
	l.segGauge.Set(int64(l.curSeg - l.firstSeg + 1))
}

// retireLocked takes leading segment seg, size bytes, out of the log. It
// becomes the spare when the log has none, still holds seg open (seg is
// the segment before the current one) and seg is no longer than
// SegmentBytes. It is renamed out of the log first, so a crash never finds
// a half-zeroed segment, then zero-filled and synced, so a crash after its
// reuse finds nothing but zeros past the new records. Any other retired
// segment is deleted. Caller holds l.mu.
func (l *Log) retireLocked(seg int, size int64) error {
	path := segPath(l.dir, seg)
	f := l.prev
	if f == nil || seg != l.curSeg-1 {
		return os.Remove(path)
	}
	l.prev = nil
	if l.spare != nil || size > int64(l.opts.SegmentBytes) {
		_ = f.Close()
		return os.Remove(path)
	}
	if err := syscall.Rename(path, l.sparePath); err != nil {
		_ = f.Close()
		return err
	}
	if err := zeroFill(f, size); err != nil {
		// seg is out of the log all the same; only the spare is lost.
		obs.Default().Eventf("wal", "recycle %s segment %d: %v", l.dir, seg, err)
		_ = f.Close()
		_ = os.Remove(l.sparePath)
		return nil
	}
	l.spare, l.spareSize = f, size
	return nil
}

// zeros is the source zeroFill copies from.
var zeros [64 << 10]byte

// zeroFill overwrites the first size bytes of f with zeros and syncs them.
func zeroFill(f *os.File, size int64) error {
	for off := int64(0); off < size; {
		n, err := f.WriteAt(zeros[:min(size-off, int64(len(zeros)))], off)
		if err != nil {
			return err
		}
		off += int64(n)
	}
	return f.Sync()
}

// waitDurableLocked blocks until an fsync covers write index idx. With a
// sync window it pokes the syncer and waits, so the appends of one window
// share its fsync. At window 0 it syncs inline, still under the mutex the
// record was written under, so no other record can have joined it: every
// append pays one fsync of its own. Caller holds l.mu.
func (l *Log) waitDurableLocked(idx uint64) error {
	if l.opts.SyncWindow <= 0 {
		if l.syncIdx >= idx {
			return l.syncErr
		}
		return l.syncLocked()
	}
	select {
	case l.syncerNow <- struct{}{}:
	default:
	}
	for l.syncIdx < idx && l.syncErr == nil && !l.closed {
		l.syncCond.Wait()
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	if l.syncIdx < idx {
		return ErrClosed
	}
	return nil
}

// syncLocked fsyncs the current segment, covering every record written so
// far. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if l.f == nil {
		return ErrClosed
	}
	target := l.writeIdx
	err := l.f.Sync()
	l.fsyncs.Inc()
	if err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else {
		l.syncIdx = target
		l.dirty = false
	}
	l.syncCond.Broadcast()
	return err
}

// startSyncer launches the window syncer when a group-commit window is
// configured.
func (l *Log) startSyncer() {
	if l.opts.SyncWindow <= 0 {
		return
	}
	l.syncerWG.Add(1)
	go func() {
		defer l.syncerWG.Done()
		for {
			if _, ok := <-l.syncerNow; !ok {
				return
			}
			time.Sleep(l.opts.SyncWindow)
			l.mu.Lock()
			if !l.closed && l.dirty {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}()
}

// isPermission reports errors a caller cannot write around: permission
// denials and read-only filesystems.
func isPermission(err error) bool {
	return os.IsPermission(err) || errors.Is(err, syscall.EROFS)
}

// checkWritable proves dir accepts file creation by creating and removing a
// probe file, surfacing ErrUnwritable on permission/read-only failures. A
// leftover probe from a crashed earlier check is removed first so O_EXCL
// stays meaningful.
func checkWritable(dir string) error {
	probe := filepath.Join(dir, ".wal-writable")
	_ = os.Remove(probe)
	f, err := os.OpenFile(probe, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if isPermission(err) {
			return fmt.Errorf("%w: %s: %v", ErrUnwritable, dir, err)
		}
		return fmt.Errorf("wal: writability probe %s: %w", dir, err)
	}
	_ = f.Close()
	_ = os.Remove(probe)
	return nil
}

// segPath names a segment file.
func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.seg", idx))
}

// listSegments returns the sorted segment indices present in dir.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []int
	for _, e := range entries {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "%08d.seg", &idx); n == 1 {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// scanSegment walks one segment's records, calling visit per record. For
// the final segment a damaged tail is tolerated when it is consistent with
// a torn write — the bad record's declared extent runs to (or past) end of
// file, or everything from the bad record on is zero padding — in which
// case scanSegment returns the clean-prefix length to truncate to. A good
// scan returns -1. Damage followed by more data is ErrCorrupt.
func scanSegment(path string, final bool, visit func(typ byte, seq uint64, payload []byte) error) (truncateTo int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return -1, fmt.Errorf("wal: read segment: %w", err)
	}
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		bad := ""
		var recEnd int64
		if len(rest) < recHeaderSize {
			bad, recEnd = "truncated header", int64(len(data))+1
		} else {
			plen := int64(binary.LittleEndian.Uint32(rest))
			crc := binary.LittleEndian.Uint32(rest[4:])
			recEnd = off + recHeaderSize + plen
			switch {
			case plen == 0 || plen > maxRecordBytes:
				bad = fmt.Sprintf("implausible record length %d", plen)
			case recEnd > int64(len(data)):
				bad = "record truncated by EOF"
			case crc32.Checksum(rest[recHeaderSize:recHeaderSize+plen], castagnoli) != crc:
				bad = "checksum mismatch"
			}
		}
		if bad == "" {
			plen := int64(binary.LittleEndian.Uint32(rest))
			payload := rest[recHeaderSize : recHeaderSize+plen]
			if len(payload) < 9 {
				return -1, fmt.Errorf("%w: %s: record without seq at offset %d", ErrCorrupt, path, off)
			}
			typ := payload[0]
			seq := binary.LittleEndian.Uint64(payload[1:9])
			if err := visit(typ, seq, payload[9:]); err != nil {
				return -1, fmt.Errorf("%s offset %d: %w", path, off, err)
			}
			off = recEnd
			continue
		}
		// Damaged record. Only the newest segment's tail can legitimately
		// be damaged, and only in ways a torn write produces: the record
		// runs into EOF, or the rest of the file is zero fill (a partially
		// persisted extension). Anything else is corruption.
		if final && (recEnd >= int64(len(data)) || allZero(rest)) {
			return off, nil
		}
		return -1, fmt.Errorf("%w: %s offset %d: %s with %d bytes of log after it",
			ErrCorrupt, path, off, bad, int64(len(data))-off)
	}
	return -1, nil
}

// allZero reports whether b is nothing but zero padding.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

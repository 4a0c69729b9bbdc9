package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/stream"
)

// Log files are written in one format, version 3 (logMagicV3): compact
// records with a delta-encoded logical timestamp and no
// arrival/production stamps, behind a header carrying a base — the
// absolute sequence number and timestamp the file's records continue
// from (zero for a fresh sequence space). After a checkpoint
// (RewriteHead) the log holds only the un-checkpointed tail, records
// below the base being durable in the table's history tier.
//
// Two older formats still replay: version 1 (logMagic: length-prefixed
// full element encodings) and version 2 (logMagicV2: compact records,
// no base). A v2 file's records are already compact, so appends extend
// it as they are and its first checkpoint rewrites it as v3; a v1 file
// is rewritten as v3 when it is opened.
var logMagic = []byte("GSNLOG1\n")

// logMagicV2 identifies the compact-record format without a base.
var logMagicV2 = []byte("GSNLOG2\n")

// logMagicV3 identifies the compact-record format with a header base.
var logMagicV3 = []byte("GSNLOG3\n")

// encodeLogHeader returns the v3 header: magic, schema, and the base
// sequence number and timestamp the file's records continue from.
func encodeLogHeader(schema *stream.Schema, base uint64, baseTS stream.Timestamp) []byte {
	hdr := append([]byte{}, logMagicV3...)
	hdr = stream.EncodeSchema(hdr, schema)
	hdr = binary.AppendUvarint(hdr, base)
	return binary.AppendVarint(hdr, int64(baseTS))
}

// SyncPolicy selects when staged WAL records are handed to the
// operating system (a write syscall). None of the policies fsync — the
// durability unit is "survives a process crash", matching the original
// per-record bufio flush.
type SyncPolicy int

const (
	// SyncAlways writes every Append/AppendBatch through to the file
	// before returning — one syscall per call, the safest and slowest
	// policy (the pre-group-commit behaviour for single appends).
	SyncAlways SyncPolicy = iota
	// SyncInterval stages records in memory and lets a background
	// flusher group-commit them every FlushInterval (or earlier when
	// FlushBytes accumulate). A crash can lose at most the last
	// interval's records.
	SyncInterval
	// SyncNone stages records and writes only when FlushBytes
	// accumulate or a barrier (Flush, Reset, Close) forces it.
	SyncNone
	// SyncDurable commits like SyncAlways and additionally fdatasyncs
	// the file, so an acked append survives OS/power failure, not just
	// process crash. The sync dominates commit latency (~100µs on
	// commodity disks), which is exactly where group commit pays:
	// every record staged behind the same commit shares one sync.
	SyncDurable
)

// String returns the descriptor spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	case SyncDurable:
		return "durable"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps descriptor strings to policies. The empty string
// is SyncAlways (the conservative default).
func ParseSyncPolicy(s string) (SyncPolicy, bool) {
	switch s {
	case "", "always":
		return SyncAlways, true
	case "interval":
		return SyncInterval, true
	case "none":
		return SyncNone, true
	case "durable":
		return SyncDurable, true
	default:
		return SyncAlways, false
	}
}

// Log durability tuning defaults.
const (
	DefaultFlushInterval  = 5 * time.Millisecond
	DefaultFlushBytes     = 256 << 10
	DefaultMaxStagedBytes = 4 << 20
)

// LogOptions tunes a Log's group-commit behaviour.
type LogOptions struct {
	// Sync is the flush policy (default SyncAlways).
	Sync SyncPolicy
	// FlushInterval is the SyncInterval flusher period (default 5ms).
	FlushInterval time.Duration
	// FlushBytes forces a flush whenever at least this much is staged,
	// under every policy (default 256 KiB).
	FlushBytes int
	// MaxStagedBytes bounds the staging buffer (default 4 MiB). An
	// appender that finds at least this much staged commits inline —
	// backpressure that stops memory growing without bound when the
	// disk cannot keep up with ingestion.
	MaxStagedBytes int
	// OnError receives asynchronous flush failures (records that were
	// acknowledged to Append but could not be written). May be nil.
	// Called without internal locks held.
	OnError func(error)
	// BaseSeq, when creating a fresh file, is the absolute sequence
	// number the first record will follow (non-zero when a table's
	// history tier already holds records but the WAL file is gone).
	// Ignored for existing files, which carry their own base.
	BaseSeq uint64
	// FS is the filesystem the log opens its file through (nil =
	// DefaultFS). Fault-injection tests swap in a FaultFS here.
	FS FS
}

func (o LogOptions) withDefaults() LogOptions {
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = DefaultFlushBytes
	}
	if o.MaxStagedBytes <= 0 {
		o.MaxStagedBytes = DefaultMaxStagedBytes
	}
	if o.MaxStagedBytes < o.FlushBytes {
		o.MaxStagedBytes = o.FlushBytes
	}
	return o
}

// LogStats reports WAL activity.
type LogStats struct {
	// Appends counts records staged.
	Appends uint64
	// Flushes counts write syscalls issued.
	Flushes uint64
	// Buffered is the number of staged, unwritten bytes.
	Buffered int
}

// Log is an append-only element log backing "permanent-storage" tables,
// organised as a group-commit WAL: Append and AppendBatch stage
// length-prefixed records in memory, and the sync policy decides when
// the staged group is committed in one syscall. Staging and writing use
// separate buffers (swapped under the staging lock), so a group commit
// in flight never blocks appenders — under SyncInterval the ingest path
// is pure memory staging while the flusher drains concurrently. The
// file starts with a magic header and the binary-encoded schema,
// followed by the records.
type Log struct {
	f      File
	fs     FS
	path   string
	schema *stream.Schema
	hdrLen int64 // file offset of the first element record
	opts   LogOptions

	// mu guards the staging state only; it is never held across a
	// write syscall.
	mu      sync.Mutex
	buf     []byte           // staged records, not yet written
	shadow  []byte           // spare buffer, swapped in by commit
	lastTS  stream.Timestamp // previous staged timestamp (record deltas)
	appends uint64
	flushes uint64
	closed  bool
	// dirty mirrors len(buf) > 0 (written under mu, read without it):
	// the flusher's idle ticks check it and skip the lock round-trip
	// entirely, so a log with nothing staged costs nothing — appenders
	// never wake the flusher below FlushBytes and the timer's wakeups
	// are no-ops until something is staged.
	dirty atomic.Bool
	// base is the absolute sequence number of the record before the
	// file's first one (0 for a fresh sequence space); recs and committed
	// count the records staged/durably committed beyond it, so
	// base+committed is the durable sequence boundary a checkpoint may
	// truncate up to. tailBytes tracks the record bytes in file plus
	// staging, the checkpoint trigger's size estimate.
	base      uint64
	recs      uint64
	committed uint64
	tailBytes int64
	// broken poisons the log after a failed commit: the file may end in
	// a torn group and the delta chain no longer matches what was
	// staged, so appending anything further would write records that
	// replay with silently wrong timestamps behind bytes the replayer
	// can never pass. Every later Append/Flush fails with this error;
	// Reset (which truncates back to the header) clears it. The next
	// OpenLog truncates the torn tail and resumes cleanly.
	broken error

	// writeMu serializes commits so swapped-out groups reach the file
	// in staging order. off (guarded by writeMu) is the end of the last
	// fully-committed group: a failed commit truncates back to it so a
	// partially-written group cannot resurrect records whose append was
	// reported failed.
	writeMu sync.Mutex
	off     int64

	kick        chan struct{} // wakes the flusher before its tick
	flusherStop chan struct{}
	flusherDone chan struct{}
}

// OpenLog opens (or creates) the log at path for appending. If the file
// already exists its header must match the given schema. A SyncInterval
// log starts its background flusher immediately; Close stops it.
func OpenLog(path string, schema *stream.Schema, opts LogOptions) (*Log, error) {
	return openLog(path, schema, opts, nil)
}

// openLog is OpenLog with an optionally pre-computed replay, so a
// caller that already decoded the file to load the window (CreateTable)
// does not pay for a second full scan.
func openLog(path string, schema *stream.Schema, opts LogOptions, rep *logReplay) (*Log, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if fsys == nil {
		fsys = DefaultFS()
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdrLen int64
	var lastTS stream.Timestamp
	var base, nrecs uint64
	if info.Size() == 0 {
		base = opts.BaseSeq
		hdr := encodeLogHeader(schema, base, 0)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, err
		}
		hdrLen = int64(len(hdr))
	} else {
		if rep == nil {
			rep, err = replayLogFile(fsys, path)
			if err != nil {
				f.Close()
				return nil, err
			}
		}
		if !rep.schema.Equal(schema) {
			f.Close()
			return nil, fmt.Errorf("storage: log %s has schema %s, table wants %s", path, rep.schema, schema)
		}
		if rep.version == 1 {
			// A full-record log: rewrite its clean records as v3 once, so
			// every append from here on is in the one write format.
			f.Close()
			if rep, err = rewriteV1(fsys, path, schema, rep.elems); err != nil {
				return nil, err
			}
			if f, err = fsys.OpenFile(path, os.O_RDWR, 0o644); err != nil {
				return nil, err
			}
		} else if rep.clean < info.Size() {
			// Crash recovery: drop the torn tail so new records extend
			// the clean prefix (and the delta chain) instead of hiding
			// behind bytes the replayer can never pass.
			if err := f.Truncate(rep.clean); err != nil {
				f.Close()
				return nil, err
			}
		}
		hdrLen = rep.hdrLen
		base = rep.base
		nrecs = uint64(len(rep.elems))
		lastTS = rep.baseTS
		if len(rep.elems) > 0 {
			lastTS = rep.elems[len(rep.elems)-1].Timestamp()
		}
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, fs: fsys, path: path, schema: schema, hdrLen: hdrLen,
		lastTS: lastTS, off: end, opts: opts,
		base: base, recs: nrecs, committed: nrecs, tailBytes: end - hdrLen}
	if opts.Sync == SyncInterval {
		l.kick = make(chan struct{}, 1)
		l.flusherStop = make(chan struct{})
		l.flusherDone = make(chan struct{})
		go l.flusher(l.flusherStop, l.flusherDone)
	}
	return l, nil
}

// rewriteV1 replaces the v1 log at path with a v3 log of the same
// records, atomically (temp file + rename, as RewriteHead does), and
// returns the new file's replay. The records lose their v1
// arrival/production stamps, which the compact format does not carry.
func rewriteV1(fsys FS, path string, schema *stream.Schema, elems []stream.Element) (*logReplay, error) {
	buf := encodeLogHeader(schema, 0, 0)
	var rec []byte
	var prev stream.Timestamp
	for _, e := range elems {
		rec = stream.EncodeElementCompact(rec[:0], e, prev)
		prev = e.Timestamp()
		buf = binary.AppendUvarint(buf, uint64(len(rec)))
		buf = append(buf, rec...)
	}
	tmp := path + ".rewrite"
	w, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	_, err = w.Write(buf)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return nil, err
	}
	return replayLogFile(fsys, path)
}

// flusher is the SyncInterval group-commit loop: it wakes every
// FlushInterval — or immediately when an appender crosses the byte
// threshold — and commits whatever has been staged since the last
// wake-up in one syscall. An idle tick (nothing staged since the last
// commit) returns without touching the staging or write locks, so the
// flusher never contends with appenders it has nothing to do for.
func (l *Log) flusher(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if !l.dirty.Load() {
				continue
			}
		case <-l.kick:
		}
		if err := l.commit(); err != nil {
			// commit has already poisoned the log; report the
			// acknowledged-but-lost records.
			if cb := l.opts.OnError; cb != nil {
				cb(err)
			}
		}
	}
}

// commit swaps the staged group out from under the appenders and
// writes it with no staging lock held. Commits are serialized, so
// groups reach the file in staging order. A failed write poisons the
// log (see Log.broken).
func (l *Log) commit() error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.buf = l.buf[:0] // records behind a tear can never replay
		l.dirty.Store(false)
		l.mu.Unlock()
		return err
	}
	buf := l.buf
	l.buf = l.shadow[:0]
	l.dirty.Store(false)
	staged := l.recs // records staged so far = records durable if this write lands
	l.mu.Unlock()
	if len(buf) == 0 {
		l.mu.Lock()
		l.shadow = buf
		l.mu.Unlock()
		return nil
	}
	_, err := l.f.Write(buf)
	if err != nil {
		// Best effort: cut any partially-written group back off the
		// file, so records whose append was reported failed cannot
		// replay. Poisoning below covers the case where even this
		// fails.
		if l.f.Truncate(l.off) == nil {
			l.f.Seek(l.off, io.SeekStart)
		}
	} else {
		l.off += int64(len(buf))
		if l.opts.Sync == SyncDurable {
			// A failed sync leaves durability unknown: poison the log
			// below, but keep the written bytes — they still replay
			// after a plain process crash.
			err = l.f.Sync()
		}
	}
	l.mu.Lock()
	l.shadow = buf[:0] // recycle the group's capacity
	l.flushes++
	if err != nil {
		l.broken = fmt.Errorf("storage: log poisoned by failed group commit: %w", err)
		err = l.broken
	} else {
		l.committed = staged
	}
	l.mu.Unlock()
	return err
}

// encodeScratch pools the per-call record-encode buffers, so append
// paths from many goroutines (combined commits, direct inserts, recovery
// re-appends) reuse encode scratch instead of growing a per-log buffer
// under the staging lock or allocating per batch.
var encodeScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// stageLocked encodes one record into the staging buffer using the
// caller-provided scratch (from encodeScratch).
func (l *Log) stageLocked(e stream.Element, scratch *[]byte) {
	s := stream.EncodeElementCompact((*scratch)[:0], e, l.lastTS)
	l.lastTS = e.Timestamp()
	*scratch = s
	before := len(l.buf)
	l.buf = binary.AppendUvarint(l.buf, uint64(len(s)))
	l.buf = append(l.buf, s...)
	l.appends++
	l.recs++
	l.dirty.Store(true)
	l.tailBytes += int64(len(l.buf) - before)
}

// Append stages one element record; the sync policy decides whether it
// is written before Append returns (SyncAlways) or by a later group
// commit. A returned error means the record is not and will never be
// durable.
func (l *Log) Append(e stream.Element) error {
	scratch := encodeScratch.Get().(*[]byte)
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		encodeScratch.Put(scratch)
		return err
	}
	l.stageLocked(e, scratch)
	staged := len(l.buf)
	encodeScratch.Put(scratch)
	return l.afterStage(staged) // unlocks l.mu
}

// AppendBatch stages a batch of records as one group; under SyncAlways
// the whole batch still costs a single write syscall, which is the
// group-commit win for burst ingestion.
func (l *Log) AppendBatch(elems []stream.Element) error {
	if len(elems) == 0 {
		return nil
	}
	scratch := encodeScratch.Get().(*[]byte)
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		encodeScratch.Put(scratch)
		return err
	}
	for _, e := range elems {
		l.stageLocked(e, scratch)
	}
	staged := len(l.buf)
	encodeScratch.Put(scratch)
	return l.afterStage(staged) // unlocks l.mu
}

// afterStage applies the sync policy once records are staged. It is
// entered with l.mu held and releases it before any commit, so the
// write syscall never runs under the staging lock.
func (l *Log) afterStage(staged int) error {
	l.mu.Unlock()
	switch {
	case l.opts.Sync == SyncAlways || l.opts.Sync == SyncDurable:
		return l.commit()
	case staged >= l.opts.MaxStagedBytes:
		// Backpressure: staging has outrun the drain; the appender
		// commits inline, rate-matching ingestion to the disk.
		return l.commit()
	case staged >= l.opts.FlushBytes:
		if l.kick != nil {
			// SyncInterval: wake the flusher early; the appender does
			// not pay for the write.
			select {
			case l.kick <- struct{}{}:
			default:
			}
		} else {
			// SyncNone: bound staged memory by committing inline.
			return l.commit()
		}
	}
	return nil
}

// usableLocked reports whether the log can accept records.
func (l *Log) usableLocked() error {
	if l.closed {
		return os.ErrClosed
	}
	return l.broken
}

// Flush is the group-commit barrier: it forces every staged record out
// to the file. Close and Reset imply it; tests and checkpoints call it
// directly.
func (l *Log) Flush() error {
	l.mu.Lock()
	err := l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.commit()
}

// Reset discards every element record — staged and written — and
// rewrites the header with a zero base, so a truncated table's log does
// not resurrect rows on the next replay and its sequence space restarts
// at zero alongside the table's. Holding writeMu first waits out any
// in-flight group commit; clearing the staging buffer under mu stops
// later ones from resurrecting anything.
func (l *Log) Reset() error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	closed := l.closed
	l.buf = l.buf[:0]
	l.dirty.Store(false)
	l.mu.Unlock()
	if closed {
		return os.ErrClosed
	}
	hdr := encodeLogHeader(l.schema, 0, 0)
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	l.hdrLen = int64(len(hdr))
	_, err := l.f.Seek(l.hdrLen, io.SeekStart)
	if err == nil {
		l.off = l.hdrLen
		l.mu.Lock()
		// A header-only file is a clean slate: the delta chain
		// restarts and a poisoned log becomes usable again.
		l.lastTS = 0
		l.broken = nil
		l.base = 0
		l.recs = 0
		l.committed = 0
		l.tailBytes = 0
		l.mu.Unlock()
	}
	return err
}

// CommittedSeq returns the absolute sequence number of the last record
// durably committed to the file: the boundary a checkpoint may
// truncate the head up to (staged records beyond it exist only in
// memory).
func (l *Log) CommittedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + l.committed
}

// TailBytes estimates the bytes of record data the log holds (file
// plus staging) since its base — the un-checkpointed tail size that
// drives the auto-checkpoint trigger.
func (l *Log) TailBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailBytes
}

// RewriteHead drops every committed record with absolute sequence
// number <= keep by rewriting the file as a v3 log whose header base
// is the new boundary, atomically (temp file + rename). keep is
// clamped to the committed boundary: a checkpoint can never truncate
// past the last durably flushed group, so records staged but not yet
// committed — and groups a crash may yet tear — always survive in
// full. The retained suffix is copied byte-for-byte: its first
// record's timestamp delta is relative to the last dropped record,
// whose timestamp becomes the header's base timestamp.
func (l *Log) RewriteHead(keep uint64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return os.ErrClosed
	}
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return err
	}
	base, committed := l.base, l.committed
	l.mu.Unlock()
	if keep > base+committed {
		keep = base + committed
	}
	if keep <= base {
		return nil
	}
	drop := keep - base

	// Decode the dropped prefix to find where the retained suffix
	// starts and the timestamp its delta chain continues from.
	rf, err := l.fs.Open(l.path)
	if err != nil {
		return err
	}
	hdr, err := readLogHeader(rf)
	if err != nil {
		rf.Close()
		return err
	}
	r := bufio.NewReader(rf)
	prev := hdr.baseTS
	off := hdr.len
	for i := uint64(0); i < drop; i++ {
		e, n, err := readRecord(r, l.schema, hdr.version, prev)
		if err != nil {
			rf.Close()
			return fmt.Errorf("storage: log %s: decoding record %d for head truncation: %w", l.path, i, err)
		}
		prev = e.Timestamp()
		off += int64(n)
	}

	tmp := l.path + ".rewrite"
	w, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		rf.Close()
		return err
	}
	nh := encodeLogHeader(l.schema, keep, prev)
	_, err = w.Write(nh)
	if err == nil {
		if _, err = rf.Seek(off, io.SeekStart); err == nil {
			_, err = io.Copy(w, rf)
		}
	}
	rf.Close()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fs.Rename(tmp, l.path)
	}
	if err != nil {
		l.fs.Remove(tmp)
		return err
	}

	// The rename replaced the inode under the open handle; swap to a
	// handle on the new file before any further commit.
	nf, err := l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	var end int64
	if err == nil {
		end, err = nf.Seek(0, io.SeekEnd)
		if err != nil {
			nf.Close()
		}
	}
	if err != nil {
		l.mu.Lock()
		l.broken = fmt.Errorf("storage: log poisoned by failed head truncation reopen: %w", err)
		err = l.broken
		l.mu.Unlock()
		return err
	}
	old := l.f
	l.f = nf
	l.off = end
	old.Close()
	l.mu.Lock()
	l.base = keep
	l.recs -= drop
	l.committed -= drop
	l.hdrLen = int64(len(nh))
	l.tailBytes -= off - hdr.len
	l.mu.Unlock()
	return nil
}

// Stats reports WAL activity counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{Appends: l.appends, Flushes: l.flushes, Buffered: len(l.buf)}
}

// Close stops the flusher, commits the staged tail and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true // new appends fail from here on
	stop, done := l.flusherStop, l.flusherDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	flushErr := l.commit()
	if err := l.f.Close(); err != nil && flushErr == nil {
		flushErr = err
	}
	return flushErr
}

// replayFile decodes the file's current clean contents without touching
// the log's state (recovery reads the records a fallen-back history
// tier needs re-migrated). Holding writeMu keeps commits from moving
// the file under the read.
func (l *Log) replayFile() (*logReplay, error) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	return replayLogFile(l.fs, l.path)
}

// Broken returns the poison error, nil for a healthy log.
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Reopen discards poisoned state by re-reading the file: the clean
// record prefix is decoded, any torn tail is truncated (the same
// recovery OpenLog performs after a crash) and a fresh handle replaces
// the dead one. Records that were staged but never committed are
// dropped — the caller (Table recovery) re-appends what the window
// still holds. On success the poison clears and the decoded replay is
// returned; rep.base + len(rep.elems) is the durable boundary.
func (l *Log) Reopen() (*logReplay, error) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, os.ErrClosed
	}
	l.mu.Unlock()
	rep, err := replayLogFile(l.fs, l.path)
	if err != nil {
		return nil, err
	}
	if !rep.schema.Equal(l.schema) {
		return nil, fmt.Errorf("storage: log %s changed schema across reopen", l.path)
	}
	f, err := l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err == nil && rep.clean < info.Size() {
		err = f.Truncate(rep.clean)
	}
	var end int64
	if err == nil {
		end, err = f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	old := l.f
	l.f = f
	l.off = end
	old.Close() // the poisoned handle; its close error is moot
	l.mu.Lock()
	l.buf = l.buf[:0]
	l.dirty.Store(false)
	l.lastTS = rep.baseTS
	if len(rep.elems) > 0 {
		l.lastTS = rep.elems[len(rep.elems)-1].Timestamp()
	}
	l.hdrLen = rep.hdrLen
	l.base = rep.base
	l.recs = uint64(len(rep.elems))
	l.committed = l.recs
	l.tailBytes = end - rep.hdrLen
	l.broken = nil
	l.mu.Unlock()
	return rep, nil
}

// Recreate replaces the file with a fresh, empty log whose sequence
// space continues at baseSeq — recovery's fallback when the file is
// gone or its prefix can no longer be trusted to line up with the
// table's implicit record numbering. The caller re-appends the live
// window afterwards.
func (l *Log) Recreate(baseSeq uint64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return os.ErrClosed
	}
	l.mu.Unlock()
	f, err := l.fs.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := encodeLogHeader(l.schema, baseSeq, 0)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	old := l.f
	l.f = f
	l.off = int64(len(hdr))
	old.Close()
	l.mu.Lock()
	l.buf = l.buf[:0]
	l.dirty.Store(false)
	l.lastTS = 0
	l.hdrLen = int64(len(hdr))
	l.base = baseSeq
	l.recs = 0
	l.committed = 0
	l.tailBytes = 0
	l.broken = nil
	l.mu.Unlock()
	return nil
}

// maxRecordLen bounds decoded record sizes to guard against a corrupt
// length prefix.
const maxRecordLen = 64 << 20

// logHeader is the decoded fixed prefix of a log file.
type logHeader struct {
	schema  *stream.Schema
	len     int64 // file offset of the first record
	version int
	// base and baseTS are the absolute sequence number and timestamp of
	// the (checkpointed, dropped) record immediately before the file's
	// first one. Zero except for v3 files.
	base   uint64
	baseTS stream.Timestamp
}

// readLogHeader validates the magic and decodes the schema (plus, for
// v3, the sequence/timestamp base), leaving the read position at the
// first record. It takes an io.ReadSeeker so tests can exercise
// short-read behaviour with wrapped readers.
func readLogHeader(f io.ReadSeeker) (logHeader, error) {
	var h logHeader
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return h, err
	}
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return h, fmt.Errorf("storage: reading log header: %w", err)
	}
	switch string(magic) {
	case string(logMagic):
		h.version = 1
	case string(logMagicV2):
		h.version = 2
	case string(logMagicV3):
		h.version = 3
	default:
		return h, fmt.Errorf("storage: not a GSN log file")
	}
	// The schema is small; fill a bounded prefix to decode it. A single
	// Read may legally return fewer bytes than available, so keep
	// reading until the buffer is full or the file ends — a short read
	// must not truncate the schema mid-field.
	buf := make([]byte, 64*1024)
	n := 0
	for n < len(buf) {
		m, err := f.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return h, err
		}
	}
	schema, consumed, err := stream.DecodeSchema(buf[:n])
	if err != nil {
		return h, fmt.Errorf("storage: decoding log schema: %w", err)
	}
	h.schema = schema
	if h.version == 3 {
		base, bn := binary.Uvarint(buf[consumed:n])
		if bn <= 0 {
			return h, fmt.Errorf("storage: decoding log base sequence")
		}
		consumed += bn
		ts, tn := binary.Varint(buf[consumed:n])
		if tn <= 0 {
			return h, fmt.Errorf("storage: decoding log base timestamp")
		}
		consumed += tn
		h.base = base
		h.baseTS = stream.Timestamp(ts)
	}
	h.len = int64(len(magic) + consumed)
	if _, err := f.Seek(h.len, io.SeekStart); err != nil {
		return h, err
	}
	return h, nil
}

// readRecord reads one length-prefixed record in the given format,
// returning the element and the record's total encoded size.
func readRecord(r *bufio.Reader, schema *stream.Schema, version int,
	prev stream.Timestamp) (stream.Element, int, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return stream.Element{}, 0, err
	}
	if size > maxRecordLen {
		return stream.Element{}, 0, fmt.Errorf("storage: record of %d bytes exceeds limit", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return stream.Element{}, 0, err
	}
	var e stream.Element
	if version >= 2 {
		e, _, err = stream.DecodeElementCompact(schema, buf, prev)
	} else {
		e, _, err = stream.DecodeElement(schema, buf)
	}
	if err != nil {
		return stream.Element{}, 0, err
	}
	return e, uvarintLen(size) + int(size), nil
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// logReplay is the decoded state of an existing log file.
type logReplay struct {
	schema  *stream.Schema
	elems   []stream.Element // the clean record prefix
	hdrLen  int64            // offset of the first record
	clean   int64            // offset where the clean prefix ends
	version int              // record format
	base    uint64           // absolute seq of the record before elems[0]
	baseTS  stream.Timestamp // timestamp elems[0]'s delta continues from
}

// replayLogFile decodes the log at path. Corrupt trailing records — a
// torn single append or the partial tail of a group commit cut short
// by a crash — terminate the replay without error, leaving clean at
// the last decodable offset.
func replayLogFile(fsys FS, path string) (*logReplay, error) {
	if fsys == nil {
		fsys = DefaultFS()
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr, err := readLogHeader(f)
	if err != nil {
		return nil, err
	}
	rep := &logReplay{schema: hdr.schema, hdrLen: hdr.len, clean: hdr.len,
		version: hdr.version, base: hdr.base, baseTS: hdr.baseTS}
	r := bufio.NewReader(f)
	prev := hdr.baseTS
	for {
		e, n, err := readRecord(r, hdr.schema, hdr.version, prev)
		if err != nil {
			// EOF or torn tail: keep the clean prefix.
			return rep, nil
		}
		prev = e.Timestamp()
		rep.elems = append(rep.elems, e)
		rep.clean += int64(n)
	}
}

// ReplayLog reads every cleanly-decodable element from the log at path
// (either record format).
func ReplayLog(path string) (*stream.Schema, []stream.Element, error) {
	rep, err := replayLogFile(nil, path)
	if err != nil {
		return nil, nil, err
	}
	return rep.schema, rep.elems, nil
}

// Package wal implements the scheduler's write-ahead log: an append-only,
// CRC-framed record log with segment rotation and compaction into periodic
// checkpoints, so a hard-killed server can rebuild its control-plane state
// (sessions, admissions, journal progress) on restart.
//
// The log is deliberately ignorant of record semantics: callers append opaque
// byte records (in practice comm.Encode'd messages) and recover them in
// order. Appending is split in three. Stage frames a record into the log's
// staging buffer and returns its log sequence number (lsn) without a syscall;
// a write turn (WriteStaged) writes everything staged with one write, and
// carries out the checkpoints queued behind it (Cut); Commit(lsn) makes that
// record and every record written before it durable. One caller at a time
// runs a write turn, outside the log's lock, so a stager never waits on the
// disk. Commit is a group commit: one caller — the leader — fsyncs outside
// the log's lock on behalf of every record written so far, and callers that
// arrive during that fsync wait for it (when it covers their record) or lead
// the next, so a burst of concurrent commits costs one or two fsyncs, not one
// each. A failed fsync reaches every waiter of its batch; the next Commit
// retries. A log driven by one writer goroutine lets other callers wait for
// its fsyncs (WaitDurable) instead of leading their own.
//
// Durability is a policy choice — PolicyAlways commits every Append before it
// returns, PolicyInterval bounds the unsynced window, PolicyOff leaves
// flushing to the OS — because the right trade between append latency and
// loss window is the operator's, not the library's. Whatever the policy, a
// crash leaves a record-boundary prefix of the write order.
//
// On-disk layout inside the WAL directory:
//
//	checkpoint          one framed record holding compacted state
//	wal-NNNNNNNN.log    numbered segments of framed records
//
// Each framed record is
//
//	[4-byte LE payload length][payload][4-byte LE CRC-32C of payload]
//
// A crash can tear the final record (partial write, or a corrupt trailing
// page); recovery truncates at the first bad frame and reports where, so the
// caller can log the loss and continue from everything before it — exactly
// the "torn tail" semantics of classic database logs.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// PolicyAlways commits every append: Append returns once an fsync
	// covers the record and every record written before it, so no
	// acknowledged record is ever lost. Concurrent appenders share their
	// fsyncs (group commit): the cost is one disk flush per batch of records
	// in flight, not one per record.
	PolicyAlways Policy = iota
	// PolicyInterval fsyncs at most once per interval: a crash loses at
	// most the records appended since the last flush.
	PolicyInterval
	// PolicyOff never fsyncs: the OS flushes when it pleases. Fastest,
	// and exactly as durable as that sounds.
	PolicyOff
)

// String names the policy the way the -fsync flag spells it.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps the -fsync flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "off", "none":
		return PolicyOff, nil
	}
	return PolicyAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// FaultHooks lets a fault injector tear appends mid-record and fail fsyncs,
// so recovery paths can be exercised deterministically in tests. The
// interface lives here (rather than importing internal/faults) to keep the
// dependency arrow pointing from the fault machinery to the thing it breaks.
type FaultHooks interface {
	// OnWALAppend reports whether this append to the given segment file
	// should be torn: the frame header and a partial payload are written,
	// then the log fails as if the process had lost power mid-write.
	OnWALAppend(path string) bool
	// OnWALSync returns a non-nil error to fail this fsync of the given
	// segment file (one-shot rules burn on first use).
	OnWALSync(path string) error
}

// Options configures a Log.
type Options struct {
	// Policy selects the fsync policy (default PolicyAlways).
	Policy Policy
	// Interval bounds the unsynced window under PolicyInterval
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// (default 4 MiB). Rotation bounds how much a recovery replays and is
	// the unit the checkpoint compactor prunes.
	SegmentBytes int64
	// Hooks optionally injects torn-append and fsync failures.
	Hooks FaultHooks
}

const (
	// DefaultSegmentBytes is the rotation size when Options.SegmentBytes is
	// unset; the control-plane sink checkpoints at the same cadence.
	DefaultSegmentBytes = 4 << 20
	defaultSyncInterval = 100 * time.Millisecond
	// maxRecord bounds a single record so a corrupt length prefix cannot
	// drive recovery into allocating gigabytes.
	maxRecord = 1 << 28
	// maxStage is the largest staging buffer the log keeps between write
	// turns: twice what Stage lets it hold before it waits.
	maxStage = 2 * DefaultSegmentBytes

	checkpointName = "checkpoint"
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports an append torn by fault injection: the log is now exactly
// as broken as a power loss mid-write would leave it, and refuses further
// appends (the real process would be dead).
var ErrTorn = errors.New("wal: append torn mid-record (injected)")

// ErrClosed reports an append, commit or sync on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Stats counts a log's work since Open: records written, the write syscalls
// that carried them, fsyncs of its segments (group commits, seals on rotation
// and close, failed ones included) and checkpoints cut. Records per write is
// what staging buys; records per fsync is what group commit buys.
type Stats struct {
	Records     uint64 `json:"records"`
	Writes      uint64 `json:"writes"`
	Fsyncs      uint64 `json:"fsyncs"`
	Checkpoints uint64 `json:"checkpoints"`
}

// Log is an append-only record log in a directory. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	ended    sync.Cond // broadcast on mu whenever a write turn or an fsync ends, a turn takes the stage, or the log closes
	f        *os.File  // active segment
	path     string    // active segment path
	seq      int       // active segment number
	size     int64     // bytes written to active segment
	lastSync time.Time
	closed   bool
	dead     error // ErrTorn, or the failed write that left the segment unreadable past it

	// Staging. stage holds the framed records not yet written, staged is the
	// lsn of the last of them, and cuts are the checkpoints queued behind
	// them; pendingCuts counts those not yet done, a turn's included. A write
	// turn swaps stage with spare and writes it outside mu; writing is set
	// while one runs.
	stage, spare []byte
	staged       uint64
	cuts         []cut
	pendingCuts  int
	writing      bool

	// Group commit. written is the lsn of the last record written, durable
	// the highest lsn an fsync has covered. While syncing, a leader fsyncs
	// outside mu on behalf of every record up to target; syncs counts the
	// fsyncs that ended, syncErr is the latest one's failure and failedAt
	// the target it failed for.
	written, durable uint64
	syncing          bool
	target           uint64
	syncs            uint64
	syncErr          error
	failedAt         uint64
	stats            Stats
}

// cut is a checkpoint queued behind the staged records it folds in: state
// replaces the checkpoint file once the records up to lsn, whose frames end
// at off in the stage, are written and sealed.
type cut struct {
	lsn   uint64
	off   int
	state []byte
}

// Open creates or reopens the write side of a WAL directory. Existing
// segments are left untouched (recover them first with Recover); appends go
// to a fresh segment numbered after the highest present, so a recovered tail
// and new records never interleave in one file.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if n := len(segs); n > 0 {
		next = segs[n-1].seq + 1
	}
	l := &Log{dir: dir, opts: opts}
	l.ended.L = &l.mu
	f, path, err := openSegment(dir, next)
	if err != nil {
		return nil, err
	}
	l.f, l.path, l.seq = f, path, next
	return l, nil
}

func segmentName(seq int) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix)
}

type segment struct {
	seq  int
	path string
}

func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix), "%d", &seq); err != nil {
			continue
		}
		segs = append(segs, segment{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

func openSegment(dir string, seq int) (*os.File, string, error) {
	path := filepath.Join(dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, "", fmt.Errorf("wal: %w", err)
	}
	return f, path, nil
}

// appendFrame appends the on-disk framing of the record whose bytes are the
// concatenation of parts, n in all, to dst.
func appendFrame(dst []byte, n int, parts ...[]byte) []byte {
	dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, 4+n+4), uint32(n))
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[len(dst)-n:], crcTable))
}

// Append writes one record and flushes it per policy. The record is durable
// on return only under PolicyAlways (and then only if no error came back);
// under the other policies the loss window is the policy's.
func (l *Log) Append(rec []byte) error { return l.AppendParts(rec) }

// AppendParts is Append for a record the caller holds in pieces (a head, a
// payload it shares with a socket, a checksum): their concatenation is framed
// in the log's staging buffer and written once.
func (l *Log) AppendParts(parts ...[]byte) error {
	lsn, err := l.Write(parts...)
	if err != nil {
		return err
	}
	return l.Flush(lsn)
}

// Stage frames one record, the concatenation of parts, into the log's
// staging buffer and returns its lsn: the record's position in the log's
// write order, counted from 1. It makes no syscall; the record reaches the
// file with the next write turn (WriteStaged, or a Write, Commit or
// Checkpoint that needs it), in lsn order. While a full segment is staged,
// Stage waits for a turn to take it.
func (l *Log) Stage(parts ...[]byte) (uint64, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.closed && l.dead == nil && len(l.stage) >= DefaultSegmentBytes {
		l.ended.Wait()
	}
	if err := l.refusesLocked(); err != nil {
		return 0, err
	}
	l.stage = appendFrame(l.stage, n, parts...)
	l.staged++
	return l.staged, nil
}

// Write stages one record and writes it, with everything staged before it,
// without syncing, and returns its lsn. Commit(lsn) makes it durable.
func (l *Log) Write(parts ...[]byte) (uint64, error) {
	lsn, err := l.Stage(parts...)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writtenLocked(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// WriteStaged runs a write turn for everything staged, once any turn in
// flight has ended, and returns the lsn written through. A log with nothing
// staged and no checkpoint queued makes no syscall.
func (l *Log) WriteStaged() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.writing {
		l.ended.Wait()
	}
	if len(l.stage) == 0 && len(l.cuts) == 0 {
		return l.written, l.refusesLocked()
	}
	err := l.turnLocked()
	return l.written, err
}

// Cut queues a checkpoint behind every record staged so far: the next write
// turn writes those records, seals the segment, atomically replaces the
// checkpoint file with state and prunes every segment it folds in. The
// caller asserts that state folds in every record staged before the call.
func (l *Log) Cut(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusesLocked(); err != nil {
		return err
	}
	l.cuts = append(l.cuts, cut{lsn: l.staged, off: len(l.stage), state: state})
	l.pendingCuts++
	return nil
}

// Cutting reports whether a checkpoint is queued or being written.
func (l *Log) Cutting() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pendingCuts > 0
}

// Checkpoint is Cut followed by the write turns that carry it out: the
// checkpoint is on disk, and the segments it folds in are pruned, when it
// returns. Appends continue in a fresh segment. The write is crash-safe
// (temp file + fsync + rename); a crash after the rename but before the prune
// merely leaves old segments whose records the caller must re-apply
// idempotently.
func (l *Log) Checkpoint(state []byte) error {
	if err := l.Cut(state); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.turnsLocked(func() bool { return l.pendingCuts == 0 }); err != nil {
		return err
	}
	return l.refusesLocked()
}

// refusesLocked is the error a closed or dead log answers every append with.
func (l *Log) refusesLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.dead
}

// turnsLocked returns once done holds, waiting out the write turn in flight
// or leading the next one until it does, with the error of the last turn it
// led.
func (l *Log) turnsLocked(done func() bool) error {
	var err error
	for !done() {
		if refused := l.refusesLocked(); refused != nil {
			return refused
		}
		if l.writing {
			l.ended.Wait()
			continue
		}
		if err = l.turnLocked(); err != nil && !done() {
			return err
		}
	}
	return err
}

// writtenLocked returns once the record at lsn is written.
func (l *Log) writtenLocked(lsn uint64) error {
	if err := l.turnsLocked(func() bool { return lsn <= l.written }); err != nil && lsn > l.written {
		return err
	}
	return nil
}

// turnLocked runs one write turn: it takes everything staged and the
// checkpoints queued behind it and carries them out with mu released — one
// write per run of records between cuts. The caller holds mu, and no turn is
// in flight.
func (l *Log) turnLocked() error {
	buf, cuts, from, to := l.stage, l.cuts, l.written, l.staged
	l.stage, l.spare, l.cuts = l.spare[:0], nil, nil
	l.writing = true
	l.ended.Broadcast() // the stage has room again
	l.mu.Unlock()
	err := l.writeOut(buf, cuts, from, to)
	l.mu.Lock()
	if cap(buf) <= maxStage {
		l.spare = buf[:0]
	}
	l.pendingCuts -= len(cuts)
	l.writing = false
	l.ended.Broadcast()
	return err
}

// writeOut writes buf, the framed records after lsn from up to lsn to, and
// carries out each cut in its place. A failed checkpoint does not stop the
// records behind it; a dead log stops everything.
func (l *Log) writeOut(buf []byte, cuts []cut, from, to uint64) error {
	var first error
	off := 0
	for _, c := range cuts {
		if err := l.writeRun(buf[off:c.off], from, c.lsn); err != nil {
			return err
		}
		off, from = c.off, c.lsn
		if err := l.checkpoint(c.state); err != nil {
			l.mu.Lock()
			fatal := l.refusesLocked() != nil
			l.mu.Unlock()
			if fatal {
				return err
			}
			first = cmp.Or(first, err)
		}
	}
	if err := l.writeRun(buf[off:], from, to); err != nil {
		return err
	}
	return first
}

// writeRun writes the framed records after lsn from up to lsn to with one
// write, rotating first when the active segment is full. Fault hooks see
// each record first: a tear writes the records before it and half of it,
// then kills the log the way a power loss mid-write would.
func (l *Log) writeRun(run []byte, from, to uint64) error {
	if len(run) == 0 {
		return nil
	}
	l.mu.Lock()
	if err := l.refusesLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	full := l.size >= l.opts.SegmentBytes
	l.mu.Unlock()
	var rotErr error
	if full {
		_, rotErr = l.rotate() // a failed seal leaves the segment active, and the run goes there
	}
	l.mu.Lock()
	if err := l.refusesLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	f, path := l.f, l.path
	l.mu.Unlock()

	n, tear := to-from, -1
	if l.opts.Hooks != nil {
		for i, off := uint64(0), 0; off < len(run); i++ {
			size := int(binary.LittleEndian.Uint32(run[off:]))
			if l.opts.Hooks.OnWALAppend(path) {
				n, tear = i, off+4+size/2
				break
			}
			off += 4 + size + 4
		}
	}
	var err error
	if tear >= 0 {
		f.Write(run[:tear])
		f.Sync()
		run = run[:tear]
	} else if _, err = f.Write(run); err != nil {
		err = fmt.Errorf("wal: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Writes++
	switch {
	case l.closed:
		return ErrClosed
	case tear >= 0:
		l.dead = ErrTorn
	case err != nil:
		// Part of the run may be on disk: nothing can follow it safely.
		l.dead = err
		return err
	}
	l.size += int64(len(run))
	l.written = from + n
	l.stats.Records += n
	if l.dead != nil {
		return l.dead
	}
	return rotErr
}

// rotate seals the active segment — an fsync covering every record written,
// so a commit never has to reach back into it — and makes the next one
// active, returning the sealed segment's number. A failed seal leaves it
// active.
func (l *Log) rotate() (int, error) {
	l.mu.Lock()
	if err := l.commitLocked(l.written); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	for l.syncing {
		l.ended.Wait() // a leader's fsync is on the outgoing segment
	}
	sealed := l.seq
	l.mu.Unlock()
	f, path, err := openSegment(l.dir, sealed+1)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		f.Close()
		return 0, ErrClosed
	}
	old := l.f
	l.f, l.path, l.seq, l.size = f, path, sealed+1, 0
	l.mu.Unlock()
	old.Close()
	return sealed, nil
}

// checkpoint seals the active segment, replaces the checkpoint file with
// state and prunes every sealed segment: all with mu released.
func (l *Log) checkpoint(state []byte) error {
	sealed, err := l.rotate()
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(filepath.Join(l.dir, checkpointName), appendFrame(nil, len(state), state), 0o644); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.mu.Lock()
	l.stats.Checkpoints++
	l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.seq <= sealed {
			os.Remove(s.path)
		}
	}
	return nil
}

// Commit returns once an fsync covers the record at lsn and every record
// written before it, whatever the policy, leading the write turn first when
// the record is still staged. It is a group commit: when no fsync is in
// flight the caller leads one, outside the log's lock, for every record
// written so far; a caller arriving while one is in flight waits for it when
// it covers lsn, and otherwise leads the next. A failed fsync is returned to
// every caller of its batch, and the next Commit tries again. A closed or
// killed log returns ErrClosed without syncing.
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(lsn)
}

func (l *Log) commitLocked(lsn uint64) error {
	for {
		if l.closed {
			return ErrClosed
		}
		if lsn <= l.durable {
			return nil
		}
		if lsn > l.written {
			if err := l.writtenLocked(lsn); err != nil {
				return err
			}
			continue
		}
		if !l.syncing {
			return l.leadLocked()
		}
		covered, syncs := l.target >= lsn, l.syncs
		for l.syncs == syncs {
			l.ended.Wait()
		}
		if covered && !l.closed && lsn > l.durable {
			return l.syncErr // our batch's fsync failed
		}
	}
}

// WaitDurable waits, leading no disk work, until an fsync covers the record
// at lsn: the side of a commit that a log's one writer serves. It returns the
// failure of an fsync that covered lsn, the error that kept lsn from being
// written, or ErrClosed.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	syncs := l.syncs
	for {
		switch {
		case l.closed:
			return ErrClosed
		case lsn <= l.durable:
			return nil
		case l.dead != nil && lsn > l.written:
			return l.dead
		case l.syncs != syncs && l.syncErr != nil && l.failedAt >= lsn:
			return l.syncErr
		}
		l.ended.Wait()
	}
}

// Flush makes the record at lsn as durable as the policy promises: Commit
// under PolicyAlways, Commit once the interval since the last fsync has
// passed under PolicyInterval, nothing under PolicyOff.
func (l *Log) Flush(lsn uint64) error {
	switch l.opts.Policy {
	case PolicyAlways:
		return l.Commit(lsn)
	case PolicyInterval:
		l.mu.Lock()
		due := time.Since(l.lastSync) >= l.opts.Interval
		l.mu.Unlock()
		if due {
			return l.Commit(lsn)
		}
	}
	return nil
}

// Stats reports the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// leadLocked runs one group commit: it fsyncs the active segment on behalf of
// every record written so far, with mu released for the fsync itself.
func (l *Log) leadLocked() error {
	f, path := l.f, l.path
	l.syncing, l.target = true, l.written
	l.mu.Unlock()
	err := l.fsync(f, path)
	l.mu.Lock()
	l.syncing = false
	l.syncEndedLocked(l.target, err)
	if l.closed {
		return ErrClosed // killed mid-fsync
	}
	return err
}

func (l *Log) fsync(f *os.File, path string) error {
	if l.opts.Hooks != nil {
		if err := l.opts.Hooks.OnWALSync(path); err != nil {
			return fmt.Errorf("wal: fsync %s: %w", filepath.Base(path), err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncEndedLocked publishes the outcome of an fsync that covered records up
// to target and wakes every caller waiting on it.
func (l *Log) syncEndedLocked(target uint64, err error) {
	l.syncs++
	l.stats.Fsyncs++
	if err != nil {
		l.syncErr, l.failedAt = err, target
	} else {
		l.durable = max(l.durable, target)
		l.lastSync = time.Now()
	}
	l.ended.Broadcast()
}

// Close writes what is staged, seals per policy and closes the active
// segment. A closed log swallows nothing: further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	for !l.closed && (l.writing || l.syncing || (l.dead == nil && (len(l.stage) > 0 || len(l.cuts) > 0))) {
		if l.writing || l.syncing {
			l.ended.Wait()
			continue
		}
		err = cmp.Or(err, l.turnLocked())
	}
	if l.closed {
		return nil
	}
	l.closed = true
	l.ended.Broadcast()
	if l.opts.Policy != PolicyOff && l.dead == nil && l.durable < l.written {
		err = cmp.Or(err, l.fsync(l.f, l.path))
		l.syncEndedLocked(l.written, err)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Kill closes the log file handles without writing what is staged or any
// final flush: the hard-kill teardown path, leaving on-disk state exactly as
// the writes so far left it. It does not wait for an fsync in flight; that
// fsync's callers get ErrClosed.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.ended.Broadcast()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// Recovered is the result of reading a WAL directory back.
type Recovered struct {
	// Checkpoint is the compacted state from the checkpoint file, nil if
	// none. CheckpointBad reports a checkpoint file that was present but
	// failed its framing or CRC and was ignored.
	Checkpoint    []byte
	CheckpointBad bool
	// Records are the tail records appended after the checkpoint, in
	// order, stopping at the first torn or corrupt frame.
	Records [][]byte
	// Torn reports that a bad frame cut the replay short; TornPath and
	// TornOffset locate it. The torn segment is truncated at the cut so a
	// subsequent Open never appends after garbage.
	Torn       bool
	TornPath   string
	TornOffset int64
	// Segments counts the segment files scanned.
	Segments int
}

// Recover reads a WAL directory: the checkpoint (if any) plus every tail
// record in segment order, truncating at the first torn or corrupt frame. A
// missing directory is an empty log, not an error — a first boot.
func Recover(dir string) (*Recovered, error) {
	out := &Recovered{}
	if data, err := os.ReadFile(filepath.Join(dir, checkpointName)); err == nil {
		recs, _, ok := parseFrames(data)
		if ok && len(recs) == 1 {
			out.Checkpoint = recs[0]
		} else {
			out.CheckpointBad = true
		}
		// A torn checkpoint is ignored wholesale: the atomic write means
		// it can only be damaged by disk corruption, and half a
		// checkpoint is worse than none.
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	out.Segments = len(segs)
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		recs, good, ok := parseFrames(data)
		out.Records = append(out.Records, recs...)
		if !ok {
			out.Torn = true
			out.TornPath = s.path
			out.TornOffset = good
			// Truncate the garbage so a reopened log never appends
			// records after an unreadable gap: the next recovery would stop
			// at the gap and silently drop everything appended past it.
			if err := os.Truncate(s.path, good); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			break
		}
	}
	return out, nil
}

// parseFrames splits framed records out of a byte run, returning the records
// parsed, the offset of the first bad frame (== len(data) when clean), and
// whether the run was fully clean.
func parseFrames(data []byte) (recs [][]byte, good int64, ok bool) {
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			return recs, int64(off), false
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n > maxRecord || off+4+n+4 > len(data) {
			return recs, int64(off), false
		}
		payload := data[off+4 : off+4+n]
		sum := binary.LittleEndian.Uint32(data[off+4+n : off+8+n])
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, int64(off), false
		}
		rec := make([]byte, n)
		copy(rec, payload)
		recs = append(recs, rec)
		off += 8 + n
	}
	return recs, int64(off), true
}

// WriteFileAtomic writes data to path via a same-directory temp file, fsync
// and rename, so the file at path is always either the old content or the
// complete new content — never a torn mix. The containing directory is
// fsynced too, pinning the rename itself.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

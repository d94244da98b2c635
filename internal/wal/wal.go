// Package wal implements the scheduler's write-ahead log: an append-only,
// CRC-framed record log with segment rotation and compaction into periodic
// checkpoints, so a hard-killed server can rebuild its control-plane state
// (sessions, admissions, journal progress) on restart.
//
// The log is deliberately ignorant of record semantics: callers append opaque
// byte records (in practice comm.Encode'd messages) and recover them in
// order. Each open log has one writer goroutine, and it alone writes, fsyncs
// and checkpoints; callers only stage and wait. Stage frames a record into
// the log's staging buffer and returns its log sequence number (lsn) without
// a syscall; Cut queues a checkpoint behind the records staged so far;
// Sync(lsn) asks for an fsync covering the record at lsn and waits for it.
// Each writer turn writes everything staged with one write per run between
// cuts, carries out the cuts, then runs at most one fsync — for the Syncs
// waiting and the policy together — so a burst of concurrent Syncs costs one
// fsync, not one each. A failed fsync reaches every Sync it covered; the next
// Sync retries.
//
// Durability is a policy choice — PolicyAlways fsyncs every batch the writer
// writes, PolicyInterval fsyncs every written record within syncInterval,
// PolicyOff leaves flushing to the OS — because the right trade between
// append latency and loss window is the operator's, not the library's.
// Whatever the policy, a crash leaves a record-boundary prefix of the write
// order.
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
	// PolicyAlways fsyncs every batch the writer writes: Append returns once
	// an fsync covers the record and every record written before it, so no
	// acknowledged record is ever lost. Concurrent appenders share their
	// fsyncs: the cost is one disk flush per batch of records in flight, not
	// one per record.
	PolicyAlways Policy = iota
	// PolicyInterval fsyncs at most once per syncInterval, and every written
	// record within it: a crash loses at most the records written in the
	// last interval.
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
	// syncInterval bounds how long a written record stays unsynced under
	// PolicyInterval, and so how often that policy fsyncs.
	syncInterval = 100 * time.Millisecond
	// maxRecord bounds a single record so a corrupt length prefix cannot
	// drive recovery into allocating gigabytes.
	maxRecord = 1 << 28
	// maxStage is the largest staging buffer the log keeps between writer
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

// ErrClosed reports an append, cut or sync on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Stats counts a log's work since Open: records written, the write syscalls
// that carried them, fsyncs of its segments (batches, seals on rotation and
// close, failed ones included) and checkpoints cut. Records per write is what
// staging buys; records per fsync is what sharing an fsync buys.
type Stats struct {
	Records     uint64 `json:"records"`
	Writes      uint64 `json:"writes"`
	Fsyncs      uint64 `json:"fsyncs"`
	Checkpoints uint64 `json:"checkpoints"`
}

// Log is an append-only record log in a directory. All methods are safe for
// concurrent use; the disk work behind them runs on the log's writer.
type Log struct {
	dir  string
	opts Options

	wake   chan struct{} // holds a token while the writer has something to look at
	exited chan struct{} // closed when the writer returns

	mu       sync.Mutex
	ended    sync.Cond // broadcast on mu whenever the writer takes the stage, ends a write or an fsync, or the log closes
	f        *os.File  // active segment
	path     string    // active segment path
	seq      int       // active segment number
	size     int64     // bytes written to active segment
	lastSync time.Time
	closing  bool  // Close asked: the writer's last turn writes, seals and closes
	closed   bool  // the writer is done: closed by its last turn, or killed
	closeErr error // what the last turn failed with
	dead     error // ErrTorn, or the failed write that left the segment unreadable past it
	err      error // the first failure: a write, an fsync, a checkpoint or a refused record

	// Staging. stage holds the framed records not yet written, staged is the
	// lsn of the last of them, lazy is set while that record asked for no
	// fsync of its own (StageLazy), and cuts are the checkpoints queued behind
	// them; pendingCuts counts those not yet done, the writer's included. The
	// writer swaps stage with spare and writes it outside mu; writing is set
	// while it does.
	stage, spare []byte
	staged       uint64
	lazy         bool
	cuts         []cut
	pendingCuts  int
	writing      bool

	// Durability. written is the lsn of the last record written, durable the
	// highest lsn an fsync has covered and want the highest lsn a Sync waits
	// for; syncs counts the fsyncs that ended, and syncErr is the latest
	// failure: the failedSync-th fsync, for the records up to failedAt.
	written, durable, want uint64
	syncs                  uint64
	syncErr                error
	failedSync, failedAt   uint64
	stats                  Stats
}

// cut is a checkpoint queued behind the staged records it folds in: state
// replaces the checkpoint file once the records up to lsn, whose frames end
// at off in the stage, are written and sealed. err, when set, receives the
// outcome (Checkpoint waits for it).
type cut struct {
	lsn   uint64
	off   int
	state []byte
	err   *error
}

// Open creates or reopens the write side of a WAL directory and starts its
// writer, which Close or Kill ends. Existing segments are left untouched
// (recover them first with Recover); appends go to a fresh segment numbered
// after the highest present, so a recovered tail and new records never
// interleave in one file.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
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
	l := &Log{dir: dir, opts: opts, wake: make(chan struct{}, 1), exited: make(chan struct{})}
	l.ended.L = &l.mu
	f, path, err := openSegment(dir, next)
	if err != nil {
		return nil, err
	}
	l.f, l.path, l.seq = f, path, next
	go l.run()
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

// Append stages one record and returns once the writer has written it —
// under PolicyAlways, once an fsync covers it too, and then only if no error
// came back; under the other policies the loss window is the policy's.
func (l *Log) Append(rec []byte) error { return l.AppendParts(rec) }

// AppendParts is Append for a record the caller holds in pieces (a head, a
// payload it shares with a socket, a checksum): their concatenation is framed
// in the log's staging buffer and written once.
func (l *Log) AppendParts(parts ...[]byte) error {
	l.mu.Lock()
	syncs := l.syncs // the policy's fsync may fail before the wait begins
	lsn, err := l.stageLocked(false, parts)
	l.mu.Unlock()
	l.poke()
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitLocked(lsn, l.opts.Policy == PolicyAlways, syncs)
}

// Stage frames one record, the concatenation of parts, into the log's
// staging buffer and returns its lsn: the record's position in the log's
// write order, counted from 1. It makes no syscall; the writer writes the
// record with its next turn, in lsn order. While a full segment is staged,
// Stage waits for the writer to take it.
func (l *Log) Stage(parts ...[]byte) (uint64, error) { return l.stageRecord(false, parts) }

// StageLazy is Stage for a record that asks for no fsync of its own: under
// PolicyAlways, a writer turn whose batch ends in it runs no policy fsync,
// and the record waits for the next fsync — a Sync's or a later batch's.
func (l *Log) StageLazy(parts ...[]byte) (uint64, error) { return l.stageRecord(true, parts) }

// stageRecord stages a record and pokes the writer once mu is released, so the
// writer does not wake into a held lock.
func (l *Log) stageRecord(lazy bool, parts [][]byte) (uint64, error) {
	l.mu.Lock()
	lsn, err := l.stageLocked(lazy, parts)
	l.mu.Unlock()
	l.poke()
	return lsn, err
}

func (l *Log) stageLocked(lazy bool, parts [][]byte) (uint64, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxRecord {
		return 0, l.failLocked(fmt.Errorf("wal: record of %d bytes exceeds limit", n))
	}
	for l.refusesLocked() == nil && len(l.stage) >= DefaultSegmentBytes {
		l.ended.Wait()
	}
	if err := l.refusesLocked(); err != nil {
		return 0, err
	}
	l.stage = appendFrame(l.stage, n, parts...)
	l.staged++
	l.lazy = lazy
	return l.staged, nil
}

// Cut queues a checkpoint behind every record staged so far: the writer
// writes those records, seals the segment, atomically replaces the
// checkpoint file with state and prunes every segment it folds in. The
// caller asserts that state folds in every record staged before the call.
func (l *Log) Cut(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cutLocked(state, nil)
}

func (l *Log) cutLocked(state []byte, outcome *error) error {
	if err := l.refusesLocked(); err != nil {
		return err
	}
	l.cuts = append(l.cuts, cut{lsn: l.staged, off: len(l.stage), state: state, err: outcome})
	l.pendingCuts++
	l.poke()
	return nil
}

// Cutting reports whether a checkpoint is queued or being written.
func (l *Log) Cutting() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pendingCuts > 0
}

// Checkpoint is Cut followed by a wait for the writer to carry it out: the
// checkpoint is on disk, and the segments it folds in are pruned, when it
// returns. Appends continue in a fresh segment. The write is crash-safe
// (temp file + fsync + rename); a crash after the rename but before the prune
// merely leaves old segments whose records the caller must re-apply
// idempotently.
func (l *Log) Checkpoint(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var outcome error
	if err := l.cutLocked(state, &outcome); err != nil {
		return err
	}
	for l.pendingCuts > 0 && !l.closed {
		l.ended.Wait()
	}
	return cmp.Or(outcome, l.refusesLocked())
}

// Sync asks the writer for an fsync covering the record at lsn and every
// record before it, whatever the policy, and waits for it. Syncs waiting
// together share one fsync; a failed fsync is returned to every Sync it
// covered, and the next Sync tries again. A closed or killed log returns
// ErrClosed without syncing.
func (l *Log) Sync(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitLocked(lsn, true, l.syncs)
}

// waitLocked returns once the record at lsn is written and, when durable, an
// fsync covers it — or with the error that kept it from either: the failure
// of an fsync that covered lsn and ended after the syncs-th.
func (l *Log) waitLocked(lsn uint64, durable bool, syncs uint64) error {
	if durable {
		l.want = max(l.want, lsn)
		l.poke()
	}
	for {
		switch {
		case l.closed:
			return ErrClosed
		case durable && l.failedSync > syncs && l.failedAt >= lsn:
			return l.syncErr // an fsync that covered lsn failed while we waited
		case lsn <= l.durable, !durable && lsn <= l.written:
			return nil
		case l.dead != nil && lsn > l.written:
			return l.dead
		}
		l.ended.Wait()
	}
}

// refusesLocked is the error a closed or dead log answers every new record
// with.
func (l *Log) refusesLocked() error {
	if l.closing || l.closed {
		return ErrClosed
	}
	return l.dead
}

// failLocked keeps the first failure for Err and returns err.
func (l *Log) failLocked(err error) error {
	if l.err == nil && err != nil && !errors.Is(err, ErrClosed) {
		l.err = err
	}
	return err
}

// Err reports the log's first failure — a write, an fsync, a checkpoint or a
// refused record — or nil while there has been none. The writer meets most of
// them with no caller waiting.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats reports the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// poke hands the writer a token, unless it already holds one.
func (l *Log) poke() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run is the log's writer, the one goroutine that writes, fsyncs and
// checkpoints. It takes a turn whenever it is poked — a record staged, a cut
// queued, a Sync, an interval fsync falling due, Close or Kill — until the
// log is closed.
func (l *Log) run() {
	defer close(l.exited)
	due := time.AfterFunc(syncInterval, l.poke)
	due.Stop()
	defer due.Stop()
	for range l.wake {
		wait, open := l.turn()
		if !open {
			return
		}
		if wait > 0 {
			due.Reset(wait)
		}
	}
}

// turn writes everything staged and carries out the cuts queued in it —
// taking the stage again while a Sync waits for a record staged meanwhile,
// or Close for the last of them — then runs at most one fsync, through every
// record written: when a Sync waits, when Close seals, under PolicyAlways
// unless the batch ends in a lazy record, and under PolicyInterval once the
// interval since the last fsync has passed. It returns how long until an
// interval fsync falls due (0 when none is pending) and false once the log
// is closed.
func (l *Log) turn() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	lazy := l.lazy
	for first := true; !l.closed && (len(l.stage) > 0 || len(l.cuts) > 0) &&
		(first || l.want > l.written || l.closing); first = false {
		lazy = l.lazy
		err = cmp.Or(err, l.writeLocked())
	}
	var wait time.Duration
	if !l.closed && l.written > l.durable {
		sync := l.want > l.durable || (l.closing && l.opts.Policy != PolicyOff) ||
			(l.opts.Policy == PolicyAlways && !lazy)
		if !sync && l.opts.Policy == PolicyInterval {
			wait = syncInterval - time.Since(l.lastSync)
			sync = wait <= 0
		}
		if sync {
			wait, err = 0, cmp.Or(err, l.syncLocked())
		}
	}
	if l.closed {
		return 0, false // killed: Kill writes what is left
	}
	l.failLocked(err)
	if !l.closing || len(l.stage) > 0 || len(l.cuts) > 0 {
		return wait, true // staged during the fsync: Close's token brings the writer back
	}
	l.closeErr = cmp.Or(err, l.f.Close())
	l.f, l.closed = nil, true
	l.ended.Broadcast()
	return 0, false
}

// writeLocked takes everything staged and the cuts queued behind it and
// carries them out with mu released: one write per run of records between
// cuts.
func (l *Log) writeLocked() error {
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
		err := l.checkpoint(c.state)
		l.mu.Lock()
		if c.err != nil {
			*c.err = err
		}
		fatal := l.dead != nil
		l.mu.Unlock()
		if err != nil {
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
	if l.dead != nil {
		l.mu.Unlock()
		return l.dead
	}
	full := l.size >= l.opts.SegmentBytes
	l.mu.Unlock()
	var rotErr error
	if full {
		_, rotErr = l.rotate() // a failed seal leaves the segment active, and the run goes there
	}
	l.mu.Lock()
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
	l.ended.Broadcast()
	if l.dead != nil {
		return l.dead
	}
	return rotErr
}

// rotate seals the active segment — an fsync covering every record written,
// so a Sync never has to reach back into it — and makes the next one active,
// returning the sealed segment's number. A failed seal leaves it active.
func (l *Log) rotate() (int, error) {
	l.mu.Lock()
	if l.durable < l.written {
		if err := l.syncLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	sealed := l.seq
	l.mu.Unlock()
	f, path, err := openSegment(l.dir, sealed+1)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
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

// syncLocked fsyncs the active segment through every record written, with mu
// released for the fsync itself, and publishes the outcome to every Sync
// waiting on it.
func (l *Log) syncLocked() error {
	f, path, target := l.f, l.path, l.written
	l.mu.Unlock()
	err := l.fsync(f, path)
	l.mu.Lock()
	l.syncs++
	l.stats.Fsyncs++
	if err != nil {
		l.syncErr, l.failedSync, l.failedAt = err, l.syncs, target
	} else {
		l.durable = max(l.durable, target)
		l.lastSync = time.Now()
	}
	l.ended.Broadcast()
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

// Close ends the log gracefully and returns once its writer has: the last
// turn writes what is staged, carries out the queued cuts, seals per policy
// and closes the active segment. A closed log swallows nothing: further
// appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closing || l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closing = true
	l.poke()
	l.mu.Unlock()
	<-l.exited
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeErr
}

// Kill ends the log as a crash would: what is staged is written out, as the
// writes a dying process had made — the checkpoints queued in it included,
// with the fsyncs of their seals and files — nothing else is synced, and the
// file handles close. It waits out a write or a checkpoint in flight, never
// an fsync: the writer exits once that returns, and every Sync gets
// ErrClosed.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.poke()
	l.ended.Broadcast()
	for l.writing {
		l.ended.Wait()
	}
	if buf, cuts, from, to := l.stage, l.cuts, l.written, l.staged; (len(buf) > 0 || len(cuts) > 0) && l.dead == nil {
		l.stage, l.cuts = nil, nil
		l.mu.Unlock()
		l.writeOut(buf, cuts, from, to)
		l.mu.Lock()
		l.pendingCuts -= len(cuts)
	}
	l.f.Close()
	l.f = nil
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

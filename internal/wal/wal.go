// Package wal implements the scheduler's write-ahead log: an append-only,
// CRC-framed record log with segment rotation and compaction into periodic
// checkpoints, so a hard-killed server can rebuild its control-plane state
// (sessions, admissions, journal progress) on restart.
//
// The log is deliberately ignorant of record semantics: callers append opaque
// byte records (in practice comm.Encode'd messages) and recover them in
// order. Appending is split in two. Write frames a record and writes it to
// the active segment, returning its log sequence number (lsn); Commit(lsn)
// makes that record and every record written before it durable. Commit is a
// group commit: one caller — the leader — fsyncs outside the log's lock on
// behalf of every record written so far, and callers that arrive during that
// fsync wait for it (when it covers their record) or lead the next one, so a
// burst of concurrent commits costs one or two fsyncs, not one each. A failed
// fsync reaches every waiter of its batch; the next Commit retries.
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
	// maxStage is the largest staging buffer the log keeps between appends.
	maxStage = 1 << 20

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

// Stats counts a log's work since Open: records written, fsyncs of its
// segments (group commits, seals on rotation and close, failed ones
// included) and checkpoints cut. Records per fsync is what group commit buys.
type Stats struct {
	Records     uint64 `json:"records"`
	Fsyncs      uint64 `json:"fsyncs"`
	Checkpoints uint64 `json:"checkpoints"`
}

// Log is an append-only record log in a directory. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	ended    sync.Cond // broadcast on mu whenever an fsync ends
	f        *os.File  // active segment
	path     string    // active segment path
	seq      int       // active segment number
	size     int64     // bytes written to active segment
	lastSync time.Time
	closed   bool
	torn     bool
	stage    []byte // a record is framed here before its one write; reused

	// Group commit. written is the lsn of the last record written, durable
	// the highest lsn an fsync has covered. While syncing, a leader fsyncs
	// outside mu on behalf of every record up to target; syncs counts the
	// fsyncs that ended, syncErr is the latest one's failure.
	written, durable uint64
	syncing          bool
	target           uint64
	syncs            uint64
	syncErr          error
	stats            Stats
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
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
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

// openSegmentLocked makes segment seq the active one. The outgoing segment is
// sealed first — fsynced, so a commit never has to reach back into it — and a
// failed seal leaves it active. Callers wait out any fsync in flight first.
func (l *Log) openSegmentLocked(seq int) error {
	if l.f != nil {
		if err := l.sealLocked(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.path, l.seq, l.size = f, path, seq, 0
	return nil
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

// Write frames one record (the concatenation of parts), writes it to the
// active segment without syncing, and returns its lsn: the record's position
// in the log's write order, counted from 1. Commit(lsn) makes it durable.
// Write rotates to a fresh segment once the active one has grown past
// Options.SegmentBytes.
func (l *Log) Write(parts ...[]byte) (uint64, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.closed && !l.torn && l.size >= l.opts.SegmentBytes {
		if l.syncing {
			l.ended.Wait() // the leader's fsync is on the outgoing segment
			continue
		}
		if err := l.openSegmentLocked(l.seq + 1); err != nil {
			return 0, err
		}
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.torn {
		return 0, ErrTorn
	}
	buf := appendFrame(l.stage[:0], n, parts...)
	if cap(buf) <= maxStage {
		l.stage = buf
	}
	if l.opts.Hooks != nil && l.opts.Hooks.OnWALAppend(l.path) {
		// Tear mid-record: header plus half the payload hits the disk,
		// then the "process" dies. The log refuses further appends so
		// the torn tail stays exactly as the crash left it.
		l.f.Write(buf[:4+n/2])
		l.f.Sync()
		l.torn = true
		return 0, ErrTorn
	}
	if _, err := l.f.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.size += int64(len(buf))
	l.written++
	l.stats.Records++
	return l.written, nil
}

// Commit returns once an fsync covers the record at lsn and every record
// written before it, whatever the policy. It is a group commit: when no fsync
// is in flight the caller leads one, outside the log's lock, for every record
// written so far; a caller arriving while one is in flight waits for it when
// it covers lsn, and otherwise leads the next. A failed fsync is returned to
// every caller of its batch, and the next Commit tries again. A closed or
// killed log returns ErrClosed without syncing.
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return ErrClosed
		}
		if lsn <= l.durable {
			return nil
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

// sealLocked fsyncs the active segment without releasing mu: rotation and
// close, which must not race a leader, have waited out any fsync in flight.
func (l *Log) sealLocked() error {
	if l.durable == l.written {
		return nil
	}
	err := l.fsync(l.f, l.path)
	l.syncEndedLocked(l.written, err)
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
		l.syncErr = err
	} else {
		l.durable = max(l.durable, target)
		l.lastSync = time.Now()
	}
	l.ended.Broadcast()
}

// waitSyncLocked waits out an fsync in flight, so the caller may replace or
// close the active segment.
func (l *Log) waitSyncLocked() {
	for l.syncing {
		l.ended.Wait()
	}
}

// Checkpoint atomically replaces the checkpoint file with the given compacted
// state and prunes every segment written so far: the caller asserts that
// state already folds in every record appended before the call. Appends
// continue in a fresh segment. The write is crash-safe (temp file + fsync +
// rename); a crash after the rename but before the prune merely leaves old
// segments whose records the caller must re-apply idempotently.
func (l *Log) Checkpoint(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitSyncLocked()
	if l.closed {
		return ErrClosed
	}
	if l.torn {
		// A torn log is a dead process: compacting post-tear state into the
		// checkpoint would un-lose records the crash is supposed to lose.
		return ErrTorn
	}
	if err := WriteFileAtomic(filepath.Join(l.dir, checkpointName), appendFrame(nil, len(state), state), 0o644); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.stats.Checkpoints++
	sealed := l.seq
	if err := l.openSegmentLocked(sealed + 1); err != nil {
		return err
	}
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

// Close flushes per policy and closes the active segment. A closed log
// swallows nothing: further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitSyncLocked()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if l.opts.Policy != PolicyOff && !l.torn {
		err = l.sealLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Kill closes the log file handles without any final flush: the hard-kill
// teardown path, leaving on-disk state exactly as the last policy-driven
// sync left it. It does not wait for an fsync in flight; that fsync's callers
// get ErrClosed.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
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

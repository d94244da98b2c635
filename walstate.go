package viracocha

// Control-plane crash durability, root side. The walSink below is the glue
// between the runtime's event streams and internal/wal: every durable-session
// admission, lease transition, dispatch and journal span/mark is (a) applied
// to the in-memory recoverable state and (b) staged for the write-ahead log —
// in that order, under one sink lock, so the state is at all times exactly
// what a replay of the staged records would rebuild. Outbound frames skip
// (a): the bridge already appended them to the request's streamLog, which the
// state shares rather than mirrors. A checkpoint is that state compacted into
// the records that rebuild it, read back through the same applyLocked as the
// tail, so checkpointing never chases the scheduler or the bridge across
// their own locks.
//
// Lock order: bridge.mu or scheduler.mu may be held when a sink method is
// called; the sink takes its own mu and, below it, a streamLog's leaf mu and
// the log's — never the other direction.
//
// No syscall runs under those locks. The sink only stages: wal.Log frames a
// record into its buffer and gives it its lsn, and the log's own writer
// goroutine does all the disk work with no bridge or sink lock held — one
// write per batch of staged records, the policy's fsync, and the checkpoints,
// whose records are taken under the sink lock, about once per segment, and
// cut the segment at their lsn. No frame waits for its record but a request's
// final frame under fsync always (Frame says why): a frame a crash loses is
// recomputed byte for byte, and the client dedupes it. The other wait is the
// admission barrier (commit), for the lease and admission records, before
// the lease reply or the routed command goes out. A retirement is staged
// lazily: it asks for no fsync of its own (Retire says why).
//
// Replay is idempotent and monotonic (frames at or below a log's head are
// dropped, epochs and attempts only move forward, marks are unioned) because
// a crash between the checkpoint rename and the segment prune makes recovery
// replay pre-checkpoint records on top of the checkpointed state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"viracocha/internal/comm"
	"viracocha/internal/wal"
)

// walState is the recoverable control-plane state: what a restarted server
// needs to honor resume handshakes and finish interrupted work.
type walState struct {
	// Counter continues the bridge's session ID sequence across restarts.
	Counter uint64
	// Sessions maps lease ID → durable session state.
	Sessions map[string]*walSession
}

type walSession struct {
	Epoch     int // highest issued lease epoch
	Admission string
	Reqs      map[uint64]*walReq // client request ID → request
}

type walReq struct {
	// RuntimeID is the scheduler-side request ID of the current incarnation;
	// recovery rebinds it before the first post-restart checkpoint.
	RuntimeID uint64
	// Cmd is the wire-encoded original client command, replayed verbatim
	// (plus routing params) when recovery re-admits the request.
	Cmd []byte
	// log is the request's stream log — the bridge's own, not a copy. A final
	// log means nothing to re-admit: its retained frames serve any resume.
	log *streamLog
	// Attempt/Want/Spans/Done piggyback the scheduler's dispatch and block
	// journal so recovery can re-dispatch only the not-yet-streamed items.
	Attempt int
	Want    int
	Spans   map[int][]int // rank → declared span
	Done    map[int]int   // item → bframes streamed
}

// walSseqGap is added to every restored request's stream sequence. Under a
// lossy fsync policy the client's acknowledged watermark can run ahead of the
// recovered sseq (the frames it acked were never flushed); stamping
// post-restart frames below that watermark would make a replay filter drop
// them. The gap puts every new frame provably past any pre-crash mark, and
// nothing anywhere relies on sseq being dense — only monotonic.
const walSseqGap = 1 << 20

func newWALState() *walState {
	return &walState{Sessions: map[string]*walSession{}}
}

func (st *walState) sessionFor(id string) *walSession {
	s := st.Sessions[id]
	if s == nil {
		s = &walSession{Reqs: map[uint64]*walReq{}}
		st.Sessions[id] = s
	}
	return s
}

// walSink implements core.WALSink plus the bridge-side hooks. All methods are
// safe on a nil receiver (a WAL-less system) and after kill() (a dead one).
type walSink struct {
	dir  string
	warn func(format string, args ...any) // trace adapter, may be nil
	// segBytes is the log's segment size and the checkpoint cadence:
	// wal.DefaultSegmentBytes, smaller in tests that need many of both.
	segBytes int64

	mu     sync.Mutex
	log    *wal.Log // nil until RecoverWAL opens the directory
	policy wal.Policy
	state  *walState
	// byRuntime indexes the durable requests by scheduler request ID, for the
	// scheduler-side hooks. The bridge's routes map has the same keys but
	// resolves to the liveReq — delivery state of every session kind, guarded
	// by bridge.mu, which a hook firing under scheduler.mu must not take.
	byRuntime map[uint64]*walReq
	bytes     int64             // staged since the last checkpoint was cut
	staged    uint64            // lsn of the last record the sink staged
	head      []byte            // scratch for a wframe record's head (Frame)
	headSess  map[string]string // that record's parameters, reused
	closed    bool
}

func newWALSink(dir string) *walSink {
	return &walSink{
		dir:       dir,
		segBytes:  wal.DefaultSegmentBytes,
		state:     newWALState(),
		byRuntime: map[uint64]*walReq{},
		headSess:  map[string]string{},
	}
}

func (w *walSink) warnf(format string, args ...any) {
	if w.warn != nil {
		w.warn(format, args...)
	}
}

// record applies one record to the state and stages it, returning its lsn
// (0 when nothing was staged).
func (w *walSink) record(m comm.Message) uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.applyLocked(m)
	return w.appendLocked(m)
}

func (w *walSink) appendLocked(m comm.Message) uint64 {
	if w.log == nil || w.closed {
		return 0
	}
	data := comm.Encode(m)
	var lsn uint64
	var err error
	if m.Kind == "wretire" {
		lsn, err = w.log.StageLazy(data)
	} else {
		lsn, err = w.log.Stage(data)
	}
	return w.stagedLocked(lsn, len(data), err)
}

// stagedLocked follows up the staging of an n-byte record: count it, and cut
// a checkpoint about once per segment. It returns the lsn to commit for it —
// the last good one when staging failed, so a commit never waits on a record
// that will not come.
func (w *walSink) stagedLocked(lsn uint64, n int, err error) uint64 {
	if err != nil {
		w.noteErr("append", err)
		return w.staged
	}
	w.staged = lsn
	w.bytes += int64(n) + 8
	if w.bytes >= w.segBytes && !w.log.Cutting() {
		w.cutLocked()
	}
	return lsn
}

// cutLocked queues a checkpoint of the state behind every record staged so
// far. Its records are taken here, under the sink's lock, so they fold in
// exactly the records before the cut; the log's writer seals the segment at
// the cut, writes the file and prunes, with no lock of the sink's held.
func (w *walSink) cutLocked() error {
	if err := w.log.Cut(comm.EncodeBatch(w.checkpointRecordsLocked())); err != nil {
		w.noteErr("checkpoint", err)
		return err
	}
	w.bytes = 0
	return nil
}

// commit is the admission barrier: leases and admissions are rare and
// load-bearing — losing one denies the client's resume outright — so commit
// returns only once the log's writer has written and fsynced the record at
// lsn, and everything staged before it, regardless of policy. Frames and
// journal records, which recovery can afford to lose (the blocks are just
// recomputed and the client dedupes), only get the policy's fsync, and
// nothing waits for it but a request's final frame under fsync always
// (Frame). commit is never called with a bridge or scheduler lock held.
func (w *walSink) commit(lsn uint64) {
	if w == nil || lsn == 0 {
		return
	}
	w.mu.Lock()
	l, closed := w.log, w.closed
	w.mu.Unlock()
	if l == nil || closed {
		return
	}
	w.noteErr("sync", l.Sync(lsn))
}

// opened returns the log, nil on a WAL-less system or before RecoverWAL.
func (w *walSink) opened() *wal.Log {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log
}

// stats reports the log's counters (zero on a WAL-less system).
func (w *walSink) stats() wal.Stats {
	if l := w.opened(); l != nil {
		return l.Stats()
	}
	return wal.Stats{}
}

// checkpointRecordsLocked is the state as the records that rebuild it, each
// request's own records kept together: admission, journal, retained frames,
// then the stream log's seal. The leading wcheckpoint record marks the format
// and carries the one fact no other record does.
func (w *walSink) checkpointRecordsLocked() []comm.Message {
	st := w.state
	recs := []comm.Message{{Kind: "wcheckpoint", Params: map[string]string{
		"counter": strconv.FormatUint(st.Counter, 10),
	}}}
	for sid, sess := range st.Sessions {
		recs = append(recs, leaseRecord("issue", sid, sess.Epoch, sess.Admission))
		for cr, r := range sess.Reqs {
			recs = append(recs,
				admitRecord(sid, cr, r.RuntimeID, r.Cmd),
				dispatchRecord(r.RuntimeID, r.Attempt, r.Want))
			for rank, sp := range r.Spans {
				recs = append(recs, spanRecord(r.RuntimeID, r.Attempt, rank, sp))
			}
			for item, bframes := range r.Done {
				recs = append(recs, markRecord(r.RuntimeID, r.Attempt, item, bframes))
			}
			recs = append(recs, r.log.records(sid, cr)...)
		}
	}
	return recs
}

// noteErr traces a failure a sink call met; the log keeps the first one
// (WALErr). A closed log's refusals are the expected stragglers of a kill,
// not failures.
func (w *walSink) noteErr(op string, err error) {
	if err != nil && !errors.Is(err, wal.ErrClosed) {
		w.warnf("wal %s failed: %v", op, err)
	}
}

// kill is the hard-kill path: nothing is staged after it, what was staged
// reaches the file as the writes the process had made, nothing more is
// synced, and the log's file handles close (wal.Log.Kill).
func (w *walSink) kill() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.closed = true
	l := w.log
	w.mu.Unlock()
	if l != nil {
		l.Kill()
	}
}

// close checkpoints once more and closes the log: the graceful path, leaving
// a restart nothing to replay.
func (w *walSink) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	l := w.log
	if l == nil || w.closed {
		w.closed = true
		w.mu.Unlock()
		return nil
	}
	state := comm.EncodeBatch(w.checkpointRecordsLocked())
	w.closed = true
	w.mu.Unlock()
	err := l.Checkpoint(state)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- records (shared by the live hooks and the checkpoint) ----

func leaseRecord(op, id string, epoch int, admission string) comm.Message {
	return comm.Message{Kind: "wlease", Params: map[string]string{
		"op": op, "id": id, "epoch": strconv.Itoa(epoch), "admission": admission,
	}}
}

func admitRecord(sessID string, clientReq, runtimeID uint64, cmd []byte) comm.Message {
	return comm.Message{Kind: "wadmit", ReqID: clientReq, Params: map[string]string{
		"sess": sessID, "rid": strconv.FormatUint(runtimeID, 10),
	}, Payload: cmd}
}

func dispatchRecord(reqID uint64, attempt, want int) comm.Message {
	return comm.Message{Kind: "wdispatch", ReqID: reqID, Attempt: comm.Some(attempt), Params: map[string]string{
		"want": strconv.Itoa(want),
	}}
}

func spanRecord(reqID uint64, attempt, rank int, items []int) comm.Message {
	return comm.Message{Kind: "wspan", ReqID: reqID, Attempt: comm.Some(attempt), Rank: comm.Some(rank),
		Params: map[string]string{"span": comm.EncodeIntList(items)}}
}

func markRecord(reqID uint64, attempt, item, bframes int) comm.Message {
	return comm.Message{Kind: "wmark", ReqID: reqID, Attempt: comm.Some(attempt), Params: map[string]string{
		"item": strconv.Itoa(item), "bframes": strconv.Itoa(bframes),
	}}
}

// ---- bridge-side hooks (called with bridge.mu held or not — sink.mu only) ----

// LeaseIssue records a fresh durable session lease and its admission name,
// and commits it: the caller sends the lease reply next.
func (w *walSink) LeaseIssue(id string, epoch int, admission string) {
	w.commit(w.record(leaseRecord("issue", id, epoch, admission)))
}

// LeaseResume records and commits an epoch bump from a resume handshake.
func (w *walSink) LeaseResume(id string, epoch int) {
	w.commit(w.record(leaseRecord("resume", id, epoch, "")))
}

// LeaseDrop records and commits a purge: the session and its requests leave
// the state.
func (w *walSink) LeaseDrop(id string) {
	w.commit(w.record(leaseRecord("drop", id, 0, "")))
}

// Admit records a durable request's admission: the original client command,
// the scheduler-side request ID the bridge routed it under, and the stream
// log the bridge will append its frames to — from here on the state's too.
// It returns the record's lsn, which the caller commits, outside the bridge
// lock, before it routes the command.
func (w *walSink) Admit(sessID string, clientReq, runtimeID uint64, cmd comm.Message, log *streamLog) uint64 {
	if w == nil {
		return 0
	}
	m := admitRecord(sessID, clientReq, runtimeID, comm.Encode(cmd))
	w.mu.Lock()
	defer w.mu.Unlock()
	w.applyLocked(m)
	if r := w.reqOf(m); r != nil {
		r.log = log
	}
	return w.appendLocked(m)
}

// Frame stages one stamped outbound frame's wframe record and returns the
// lsn the frame must wait for before it reaches a socket: none, except for a
// request's final frame under PolicyAlways, which the bridge Syncs (commit)
// before sending. Every other frame leaves at once, since a frame a crash
// loses is recomputed byte for byte; the final one waits for its fsync so
// that a request its client saw finish is never run again after a crash —
// and so that the client's next command finds the log's writer idle, its
// admission barrier one small fsync. The bridge appended
// the frame to the shared stream log before calling, so a checkpoint cut
// ahead of this record already folds the frame in and replay drops the
// record as a duplicate. The record is frameRecord's byte for byte, never
// assembled here: its head in the sink's scratch, the frame's parts as its
// payload, the log framing both.
func (w *walSink) Frame(sessID string, clientReq uint64, f comm.Frame, final bool) uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil || w.closed {
		return 0
	}
	w.headSess["sess"] = sessID
	w.head = comm.AppendHead(w.head[:0], comm.Message{Kind: "wframe", ReqID: clientReq, Params: w.headSess}, f.Len())
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], f.SumAfter(w.head))
	lsn, err := w.log.Stage(w.head, f.Head, f.Payload, f.Sum, sum[:])
	lsn = w.stagedLocked(lsn, len(w.head)+f.Len()+len(sum), err)
	if !final || w.policy != wal.PolicyAlways {
		return 0
	}
	return lsn
}

// Retire records that the client fully consumed a finished request. The
// record is staged lazily and rides the next commit: the client that sent
// its "done" sends its next command right behind it, and that command's
// admission barrier syncs both with one fsync instead of queueing behind a
// second.
func (w *walSink) Retire(sessID string, clientReq uint64) {
	w.record(comm.Message{Kind: "wretire", ReqID: clientReq, Params: map[string]string{
		"sess": sessID,
	}})
}

// ---- scheduler-side hooks (core.WALSink; called under scheduler.mu) ----

// journal records one scheduler-side event of a durable request; the record
// rides the next commit. Non-durable requests — anything the bridge never
// admitted — are not in byRuntime and stay out of the log, without their
// record ever being built.
func (w *walSink) journal(reqID uint64, rec func() comm.Message) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.byRuntime[reqID] == nil {
		return
	}
	m := rec()
	w.applyLocked(m)
	w.appendLocked(m)
}

// Dispatch records that a request started (or restarted) an attempt with a
// group of want ranks.
func (w *walSink) Dispatch(reqID uint64, attempt, want int) {
	w.journal(reqID, func() comm.Message { return dispatchRecord(reqID, attempt, want) })
}

// JournalSpan records one rank's declared work span.
func (w *walSink) JournalSpan(reqID uint64, attempt, rank int, items []int) {
	w.journal(reqID, func() comm.Message { return spanRecord(reqID, attempt, rank, items) })
}

// JournalMark records one completed span item and how many block-tagged
// frames its executor streamed for it.
func (w *walSink) JournalMark(reqID uint64, attempt, rank, item, bframes int) {
	w.journal(reqID, func() comm.Message { return markRecord(reqID, attempt, item, bframes) })
}

// ---- state application (shared by the live path and recovery replay) ----

func (w *walSink) applyLocked(m comm.Message) {
	st := w.state
	switch m.Kind {
	case "wcheckpoint":
		if n, err := strconv.ParseUint(m.Params["counter"], 10, 64); err == nil && n > st.Counter {
			st.Counter = n
		}
	case "wlease":
		id := m.Params["id"]
		epoch := m.IntParam("epoch", 0)
		switch m.Params["op"] {
		case "issue":
			sess := st.sessionFor(id)
			if adm := m.Params["admission"]; adm != "" {
				sess.Admission = adm
			}
			if epoch > sess.Epoch {
				sess.Epoch = epoch
			}
			// Lease IDs are "sess-N": fold N into the counter so a restarted
			// bridge never re-issues a live ID.
			if n, err := strconv.ParseUint(strings.TrimPrefix(id, "sess-"), 10, 64); err == nil && n > st.Counter {
				st.Counter = n
			}
		case "resume":
			if sess := st.Sessions[id]; sess != nil && epoch > sess.Epoch {
				sess.Epoch = epoch
			}
		case "drop":
			if sess := st.Sessions[id]; sess != nil {
				for _, r := range sess.Reqs {
					delete(w.byRuntime, r.RuntimeID)
				}
			}
			delete(st.Sessions, id)
		}
	case "wadmit":
		sess := st.Sessions[m.Params["sess"]]
		if sess == nil {
			return // lease record lost to the loss window; nothing to anchor to
		}
		r := sess.Reqs[m.ReqID]
		if r == nil {
			r = &walReq{Cmd: m.Payload, log: &streamLog{}}
			sess.Reqs[m.ReqID] = r
		}
		if rid, err := strconv.ParseUint(m.Params["rid"], 10, 64); err == nil && rid != 0 {
			if r.RuntimeID != 0 {
				delete(w.byRuntime, r.RuntimeID)
			}
			r.RuntimeID = rid
			w.byRuntime[rid] = r
		}
	case "wframe":
		// Replay only: the live path's frames reach the log through the bridge.
		if r := w.reqOf(m); r != nil {
			if f, err := comm.Decode(m.Payload); err == nil {
				r.log.append(newLogFrame(f, m.Payload))
			}
		}
	case "wstream":
		if r := w.reqOf(m); r != nil {
			r.log.restore(m)
		}
	case "wretire":
		sess := st.Sessions[m.Params["sess"]]
		if sess == nil {
			return
		}
		if r := sess.Reqs[m.ReqID]; r != nil {
			delete(w.byRuntime, r.RuntimeID)
			delete(sess.Reqs, m.ReqID)
		}
	case "wdispatch":
		r := w.byRuntime[m.ReqID]
		if r == nil {
			return
		}
		attempt := m.Attempt.Or(0)
		if attempt < r.Attempt {
			return
		}
		if attempt > r.Attempt {
			r.Attempt = attempt
			r.Spans, r.Done = nil, nil // the new attempt re-declares from scratch
		}
		r.Want = m.IntParam("want", 0)
	case "wspan":
		r := w.byRuntime[m.ReqID]
		// streamed=0 is a gathered span, which WALs of older servers still
		// hold: its results died with the process, so it declares nothing.
		if r == nil || m.Attempt.Or(0) != r.Attempt || m.Params["streamed"] == "0" {
			return
		}
		if r.Spans == nil {
			r.Spans = map[int][]int{}
		}
		rank := m.Rank.Or(0)
		r.Spans[rank] = unionInts(r.Spans[rank], comm.ParseIntList(m.Params["span"]))
	case "wmark":
		r := w.byRuntime[m.ReqID]
		if r == nil || m.Attempt.Or(0) != r.Attempt {
			return
		}
		item := m.IntParam("item", -1)
		if item < 0 {
			return
		}
		if r.Done == nil {
			r.Done = map[int]int{}
		}
		if old, ok := r.Done[item]; !ok || m.IntParam("bframes", -1) > old {
			r.Done[item] = m.IntParam("bframes", -1)
		}
	case "wmemo", "wmemoinval":
		// Memo results and their invalidations, in a WAL of an older server:
		// a memo result is a cache, not control-plane state, so recovery
		// drops them and the next request for one recomputes it.
	}
}

func (w *walSink) reqOf(m comm.Message) *walReq {
	sess := w.state.Sessions[m.Params["sess"]]
	if sess == nil {
		return nil
	}
	return sess.Reqs[m.ReqID]
}

// unionInts merges two item lists into a sorted, deduplicated one.
func unionInts(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// ---- recovery ----

// load rebuilds the state from a recovered checkpoint plus tail records. A
// checkpoint is all-or-nothing (DecodeBatch CRC-checks every record before
// any is applied); one that does not parse as this format's record batch —
// an older layout included — is skipped and the tail replayed alone.
func (w *walSink) load(rec *wal.Recovered) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.state = newWALState()
	w.byRuntime = map[uint64]*walReq{}
	if rec.Checkpoint != nil {
		recs, err := comm.DecodeBatch(rec.Checkpoint)
		if err == nil && (len(recs) == 0 || recs[0].Kind != "wcheckpoint") {
			err = errors.New("not a checkpoint record batch")
		}
		if err != nil {
			w.warnf("wal checkpoint unreadable, replaying records only: %v", err)
			recs = nil
		}
		for _, m := range recs {
			w.applyLocked(m)
		}
	}
	for _, raw := range rec.Records {
		m, err := comm.Decode(raw)
		if err != nil {
			continue // a record CRC passed but the envelope didn't: skip it
		}
		w.applyLocked(m)
	}
}

// walPlan is one request crash recovery must re-admit: the routed command,
// the attempt to run it under and — when hasSpan — the only items to run.
type walPlan struct {
	cmd     comm.Message
	span    []int
	hasSpan bool
	attempt int
}

// unfinishedSpan reports the journal-proven not-yet-streamed items of a
// request, and whether the journals can be trusted at all: every rank of the
// dispatched group must have declared a span (a missing declaration hides
// unknown work, and gathered commands declare none).
func unfinishedSpan(r *walReq) ([]int, bool) {
	if r.Want <= 0 {
		return nil, false
	}
	var all []int
	for rank := 0; rank < r.Want; rank++ {
		sp, ok := r.Spans[rank]
		if !ok {
			return nil, false
		}
		all = unionInts(all, sp)
	}
	// A completed item needs no recompute only when every block-tagged frame
	// it streamed reached the log (the wmark's bframes count says how many
	// there were): the client either acknowledged it or is owed its replay.
	logged := r.log.loggedUnder(r.Attempt)
	var miss []int
	for _, it := range all {
		bf, done := r.Done[it]
		if !done || bf < 0 || logged[it] < bf {
			miss = append(miss, it)
		}
	}
	return miss, true
}

// open attaches the write side of the WAL directory and cuts an immediate
// checkpoint, so recovery replay is never needed twice for the same records.
func (w *walSink) open(policy wal.Policy, hooks wal.FaultHooks) error {
	l, err := wal.Open(w.dir, wal.Options{Policy: policy, Hooks: hooks, SegmentBytes: w.segBytes})
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.log, w.policy = l, policy
	state := comm.EncodeBatch(w.checkpointRecordsLocked())
	w.mu.Unlock()
	return l.Checkpoint(state)
}

// restoreWAL rebuilds the bridge from the recovered state in one walk: the
// session ID counter, the sessions — detached, each with a full lease, since
// the restart itself may have eaten most of the old one — and each request's
// liveReq around the same stream log the state holds. Every unfinished
// request is bound to a fresh runtime ID, routed, and returned as a
// re-admission plan carrying — when the journals prove full coverage —
// exactly the items not yet streamed.
func (b *sessionBridge) restoreWAL(w *walSink) []walPlan {
	b.mu.Lock()
	defer b.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	b.counter = w.state.Counter
	expiry := b.sys.Clock.Now() + b.ttl
	sids := make([]string, 0, len(w.state.Sessions))
	for id := range w.state.Sessions {
		sids = append(sids, id)
	}
	sort.Strings(sids)
	var plans []walPlan
	for _, sid := range sids {
		ws := w.state.Sessions[sid]
		sess := &liveSession{
			id:        sid,
			epoch:     ws.Epoch,
			admission: ws.Admission,
			durable:   true,
			expiry:    expiry,
			reqs:      map[uint64]*liveReq{},
		}
		b.sessions[sid] = sess
		crs := make([]uint64, 0, len(ws.Reqs))
		for cr := range ws.Reqs {
			crs = append(crs, cr)
		}
		sort.Slice(crs, func(i, j int) bool { return crs[i] < crs[j] })
		for _, cr := range crs {
			wr := ws.Reqs[cr]
			sent := wr.log.head() > 0
			wr.log.skip(walSseqGap)
			lr := &liveReq{
				sess:      sess,
				clientReq: cr,
				log:       wr.log,
				unacked:   map[int]int{},
				selfAcked: wr.log.head(), // no live flow state to credit after a restart
			}
			sess.reqs[cr] = lr
			// The old process's runtime ID means nothing to this one.
			delete(w.byRuntime, wr.RuntimeID)
			wr.RuntimeID = 0
			if wr.log.final() {
				continue
			}
			cmd, err := comm.Decode(wr.Cmd)
			if err != nil {
				w.warnf("session %s req %d: corrupt admitted command dropped: %v", sid, cr, err)
				continue
			}
			rid := b.sys.Runtime.NextReqID()
			p := walPlan{cmd: b.routed(cmd, rid, ws.Admission), attempt: wr.Attempt}
			if span, ok := unfinishedSpan(wr); ok {
				// The journal covers the whole work set: re-dispatch only the
				// blocks not provably streamed; the attempt continues so the
				// client keeps its already-received frames.
				p.span, p.hasSpan = span, true
			} else if sent {
				// No trustworthy journal but frames already went out: restart
				// the whole request one attempt up so the client discards the
				// old attempt's frames wholesale and reassembles from scratch.
				p.attempt++
			}
			// Bind before the post-recovery checkpoint records the binding, so
			// the new incarnation's dispatch/span/mark records land on wr.
			lr.runtimeID, wr.RuntimeID = rid, rid
			b.routes[rid] = lr
			w.byRuntime[rid] = wr
			plans = append(plans, p)
		}
	}
	return plans
}

// RecoverWAL restores control-plane state from the WAL directory and starts
// the system: recover checkpoint + tail (tolerating a torn final record),
// rebuild the durable sessions and retained streams, cut a fresh checkpoint,
// then re-admit every unfinished request — with, when its journals survived,
// only the blocks not yet streamed to the client. A WAL-less system (no
// Options.WALDir) returns nil immediately. Call it on a fresh System, before
// Serve; it replaces Start.
func (s *System) RecoverWAL() error { return s.recoverWAL(s.Runtime.FaultInjector()) }

// recoverWAL is RecoverWAL with the log's fault hooks given.
func (s *System) recoverWAL(hooks wal.FaultHooks) error {
	if s.wal == nil {
		return nil
	}
	if s.started {
		return fmt.Errorf("viracocha: RecoverWAL after Start")
	}
	policy, err := wal.ParsePolicy(s.opts.WALFsync)
	if err != nil {
		return err
	}
	rec, err := wal.Recover(s.opts.WALDir)
	if err != nil {
		return err
	}
	rt := s.Runtime
	if rec.Torn {
		rt.Trace.Eventf(rt.Clock.Now(), "wal",
			"torn tail in %s at offset %d: truncated, replaying %d records", rec.TornPath, rec.TornOffset, len(rec.Records))
	}
	if rec.CheckpointBad {
		rt.Trace.Eventf(rt.Clock.Now(), "wal",
			"checkpoint failed its CRC framing: ignored, replaying %d records only", len(rec.Records))
	}
	w := s.wal
	w.load(rec)
	b := s.bridge()
	admitted := b.restoreWAL(w)
	if err := w.open(policy, hooks); err != nil {
		return err
	}
	s.Start()
	b.start()
	for _, p := range admitted {
		if !rt.Sched.AdmitRecovered(p.cmd, p.span, p.hasSpan, p.attempt) {
			w.warnf("req %d of %s: re-admission rejected", p.cmd.ReqID, p.cmd.Params["session"])
		}
	}
	rt.Trace.Eventf(rt.Clock.Now(), "wal",
		"recovered: %d sessions, %d requests re-admitted", len(b.sessions), len(admitted))
	return nil
}

// Kill tears the whole system down as a crash would: the WAL stops first (so
// post-mortem activity cannot reach the disk), client connections drop
// without detach courtesies, workers crash, the scheduler dies. What survives
// is every record the WAL had staged, written out as the writes a dying
// process had made, and nothing more is synced.
func (s *System) Kill() {
	if s.wal != nil {
		s.wal.kill()
	}
	s.bmu.Lock()
	br := s.br
	s.bmu.Unlock()
	if br != nil {
		var conns []*comm.Conn
		br.mu.Lock()
		expiry := s.Clock.Now() + br.ttl
		for _, sess := range br.sessions {
			if sess.conn != nil {
				conns = append(conns, sess.conn)
				sess.conn = nil
				sess.connGen++ // fence the reader's cleanup: a crash credits nothing
				sess.expiry = expiry
			}
		}
		br.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		br.ep.Close()
	}
	s.Runtime.Kill()
}

// CloseWAL checkpoints and closes the write-ahead log (the graceful-shutdown
// counterpart of Kill): a subsequent restart recovers from the checkpoint
// alone. Safe on a WAL-less system.
func (s *System) CloseWAL() error { return s.wal.close() }

// WALErr reports the first write-ahead-log write, fsync, checkpoint or
// refused-record failure, if any: logging is best-effort after one (the
// mirror stays correct, but durability is degraded) and operators should want
// to know.
func (s *System) WALErr() error {
	if l := s.wal.opened(); l != nil {
		return l.Err()
	}
	return nil
}

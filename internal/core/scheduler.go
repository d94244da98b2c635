package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"viracocha/internal/comm"
)

// RequestStats is the server-side record of one request: the timings the
// paper's figures are built from, plus the fault-tolerance outcome.
type RequestStats struct {
	ReqID    uint64
	Command  string
	Workers  int
	Received time.Duration // command arrival at the scheduler
	Started  time.Duration // work group dispatched
	End      time.Duration // last worker reported done
	Probes   Probes        // summed over the group
	Streams  int           // partial packets streamed to the client
	Frames   int           // fabric messages that carried them (always == Streams)
	Errors   int
	// Retries counts recovery dispatches (single-rank failovers and full
	// restarts) performed for this request.
	Retries int
	// Degraded reports that the request ran with fewer workers than asked
	// for because part of the pool was dead.
	Degraded bool
	// Uncached counts demand blocks the DMS served on the degraded uncached
	// path: the memory budget was exhausted and eviction could not make
	// room, so the block was handed to the command without being cached.
	Uncached int
	// Redistributions counts block-granular failovers: a dead rank's
	// unfinished span re-issued to a survivor under the same attempt.
	Redistributions int
	// BlocksRecomputed totals the span items re-issued by redistributions —
	// the measurable cost of recovery. A crash in journal mode recomputes at
	// most the dead rank's unfinished blocks.
	BlocksRecomputed int
	// MemoHit marks a request served by the result memo without its own
	// extraction: a replay of a cached result or an attachment to an
	// in-flight identical request.
	MemoHit bool
	// Subscribers is the memo fan-out: on a producer record, how many
	// requests its one extraction served; on a subscriber record, the
	// entry's total subscriber count. Zero on the direct (non-memo) path.
	Subscribers int
}

// TotalRuntime is the paper's "total runtime": dispatch to completion.
func (s RequestStats) TotalRuntime() time.Duration { return s.End - s.Started }

// Worker states as tracked by the scheduler. The zero value is wsFree so an
// unknown node name (stray message) defaults to a harmless state.
// Membership walks free/busy → dead → (rejoin) → free; cordoned is the
// administrative drain state of a rolling restart. Only wsFree and wsBusy
// count toward dispatch strength.
const (
	wsFree = iota
	wsBusy
	wsDead
	// wsCordoned: administratively drained for a rolling restart; alive but
	// receiving no new work, awaiting decommission.
	wsCordoned
)

// busyRef records which piece of which request a busy worker is executing.
type busyRef struct {
	reqID uint64
	rank  int
}

// redispatch is a queued recovery action: re-run one rank of an attempt, or
// restart the whole request (rank < 0) under a new attempt number. When the
// progress journal planned a block-granular recovery, span carries the
// unfinished items to re-issue (hasSpan distinguishes an empty plan — all
// blocks delivered, only the rank's report missing — from no plan at all).
type redispatch struct {
	reqID   uint64
	attempt int
	rank    int
	span    []int
	hasSpan bool
}

// outMsg is a send the scheduler decided on under its lock but performs
// after releasing it (sends park the actor on the fabric and must never
// happen while holding s.mu).
type outMsg struct {
	to  string
	msg comm.Message
}

// Scheduler accepts commands from the client, forms work groups as workers
// become free, dispatches, and records per-request statistics. It is also
// the failure detector: workers heartbeat to it, silence beyond the
// configured window gets a worker declared dead, and the dead worker's
// in-flight pieces are retried on survivors or the whole request restarted
// with a smaller group.
type Scheduler struct {
	rt *Runtime
	ep *comm.Endpoint

	mu         sync.Mutex
	state      map[string]int
	busy       map[string]busyRef
	free       []string
	lastSeen   map[string]time.Duration
	idleStreak map[string]int
	// epochs records each node's admitted incarnation number; reports
	// stamped with an older epoch come from a fenced incarnation and are
	// dropped (rejoin epoch fencing).
	epochs map[string]int
	// cordonPending marks busy workers whose cordon (rolling restart) waits
	// for the in-flight rank to drain.
	cordonPending map[string]bool
	pending       msgRing
	active        map[uint64]*activeReq
	// finished holds the newest maxFinished request records, finishedOrder
	// their IDs oldest first; finishedDropped counts the records evicted.
	finished        map[uint64]RequestStats
	finishedOrder   []uint64
	finishedDropped int64
	redisQ          []redispatch
	sessions        map[string]int // in-flight (queued + active) requests per session
	svcSum          time.Duration  // summed service time of finished requests
	svcCount        int64
	overload        OverloadCounters
	rejecting       bool // drain mode: in-flight requests finish, new ones bounce
	draining        bool
	stopped         bool

	// memo is the cross-session result-memoization table (see memo.go); it
	// is always present, but consulted only for memo-enabled requests.
	memo *memoTable
}

type activeReq struct {
	stats   RequestStats
	req     *Request
	attempt int
	// group is the member list the attempt was dispatched with, shared by
	// its start messages; members is the live assignment, which a rank
	// re-run rewrites in place.
	group     []string
	members   []string
	done      []bool
	doneCount int
	retries   int
	// journal is built from the spans and watermarks the ranks of a
	// journaled request (req.Journal) declare, lazily on the first one;
	// failover then redistributes unfinished blocks instead of re-running
	// whole ranks. Gathered commands declare nothing, so their ranks re-run.
	journal *blockJournal
}

// start builds the "start" of one rank of the current attempt; span, when
// hasSpan, is the work the rank is re-issued instead of its own share.
func (ar *activeReq) start(rank int, span []int, hasSpan bool) comm.Message {
	return comm.Message{Kind: "start", Command: ar.req.Command, ReqID: ar.req.ReqID, Body: &Start{
		Req: ar.req, Rank: rank, Group: ar.group, Attempt: ar.attempt, Span: span, HasSpan: hasSpan,
	}}
}

// regroup installs a freshly formed group: the dispatch's shared member list
// and a live copy that rank re-runs may rewrite.
func (ar *activeReq) regroup(members []string) {
	ar.group = members
	ar.members = append([]string(nil), members...)
	ar.done = make([]bool, len(members))
	ar.doneCount = 0
	ar.stats.Workers = len(members)
}

func newScheduler(rt *Runtime) *Scheduler {
	s := &Scheduler{
		rt:            rt,
		ep:            rt.Net.Endpoint("scheduler"),
		state:         map[string]int{},
		busy:          map[string]busyRef{},
		lastSeen:      map[string]time.Duration{},
		idleStreak:    map[string]int{},
		epochs:        map[string]int{},
		cordonPending: map[string]bool{},
		active:        map[uint64]*activeReq{},
		finished:      map[uint64]RequestStats{},
		sessions:      map[string]int{},
	}
	s.memo = newMemoTable(rt)
	return s
}

func (s *Scheduler) start() {
	now := s.rt.Clock.Now()
	for _, w := range s.rt.Workers {
		s.epochs[w.node] = w.Epoch()
		s.lastSeen[w.node] = now
		s.state[w.node] = wsFree
		s.free = append(s.free, w.node)
	}
	s.rt.Clock.Go(s.loop)
	if s.rt.cfg.FT.HeartbeatEvery > 0 {
		s.rt.Clock.Go(s.monitor)
	}
}

func (s *Scheduler) loop() {
	for {
		m, ok := s.ep.Recv()
		if !ok {
			return
		}
		switch m.Kind {
		case "command":
			if s.acceptCommand(m) {
				s.pump()
			}
		case "disconnect":
			s.dropSession(m.Params["session"])
			s.pump()
			if s.maybeFinish() {
				return
			}
		case "wdone", "wspan", "wmark", "hb", "join", "cordon", "decommission":
			if r, ok := m.Body.(*Report); ok && s.noteReport(m.Kind, m.ReqID, r) {
				return
			}
		case "cancel":
			// Flag the request; the workers observe it cooperatively. A
			// cancel for an already-finished (or unknown) request is a
			// harmless no-op. A request being served by the memo path has no
			// active record of its own — its subscriber is cancelled instead.
			s.mu.Lock()
			_, active := s.active[m.ReqID]
			s.mu.Unlock()
			if active {
				s.rt.markCancelled(m.ReqID)
			} else {
				s.memo.cancelSub(m.ReqID)
			}
		case "drain":
			// Graceful-shutdown admission gate: unlike "shutdown" (which also
			// stops the loop once idle), drain only flips the rejection flag —
			// the scheduler keeps running so in-flight requests finish, late
			// worker reports are absorbed and a snapshot can be cut.
			s.mu.Lock()
			already := s.rejecting
			s.rejecting = true
			s.mu.Unlock()
			if !already {
				s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
					"drain mode entered: new requests rejected, in-flight continue")
			}
		case "shutdown":
			s.mu.Lock()
			s.draining = true
			s.mu.Unlock()
			if s.maybeFinish() {
				return
			}
		}
	}
}

// noteReport applies one worker-side control message — a body-less one names
// nobody and is dropped before this — and reports whether the scheduler has
// finished.
func (s *Scheduler) noteReport(kind string, reqID uint64, r *Report) bool {
	switch kind {
	case "wspan":
		s.noteSpan(reqID, r)
		return false
	case "wmark":
		s.noteMark(reqID, r)
		return false
	case "cordon":
		s.noteCordon(r.Worker)
		return false
	case "join":
		s.noteJoin(r)
		s.pump()
		return false
	case "wdone":
		s.noteDone(reqID, r)
	case "hb":
		s.noteHeartbeat(r)
	case "decommission":
		// The administrative twin of declareDead.
		s.fence(r.Worker, "decommissioned")
	}
	s.pump()
	return s.maybeFinish()
}

// pump performs every dispatch decision currently possible — queued recovery
// actions first (they unblock requests already half-done), then fresh FIFO
// dispatches — and executes the resulting sends outside the lock.
func (s *Scheduler) pump() {
	var sends []outMsg
	s.mu.Lock()
	s.drainRedispatchLocked(&sends)
	s.dispatchLocked(&sends)
	s.mu.Unlock()
	for _, o := range sends {
		s.send(o)
	}
}

// admit is the admission-control gate: a command is queued only while the
// pending queue is under MaxQueue and the issuing session is under its
// quota. A rejected command is answered immediately with a typed overload
// error carrying the retry-after hint; it never reaches the queue, never
// consumes a retry budget, and leaves no finished-request record. Recovery
// redispatches re-enter through redisQ and deliberately bypass admission —
// an admitted request's retries must not be starved by newer arrivals.
func (s *Scheduler) admit(r *Request) bool {
	if !s.admitGate(r) {
		return false
	}
	s.mu.Lock()
	s.pending.push(r, s.rt.Clock.Now())
	s.mu.Unlock()
	return true
}

// admitGate applies the admission checks and, on acceptance, charges the
// session's quota slot — without queueing anything: admit and memoAdmit
// decide what an accepted command turns into. A rejection is answered
// immediately. Only the scheduler loop calls this, so the check-then-queue
// split introduces no admission race.
func (s *Scheduler) admitGate(r *Request) bool {
	ol := s.rt.cfg.Overload
	sess := r.Session
	s.mu.Lock()
	reason, flag, prefix := "", "overloaded", "core: overloaded: "
	switch {
	case s.rejecting:
		reason = "server draining: not accepting new requests"
		flag, prefix = "draining", "core: draining: "
		s.overload.RejectedDrain++
	case ol.MaxQueue > 0 && s.pending.len() >= ol.MaxQueue:
		reason = fmt.Sprintf("queue full (%d queued, cap %d)", s.pending.len(), ol.MaxQueue)
		s.overload.RejectedQueue++
	case ol.SessionQuota > 0 && s.sessions[sess] >= ol.SessionQuota:
		reason = fmt.Sprintf("session %s quota exhausted (%d in flight, quota %d)", sess, s.sessions[sess], ol.SessionQuota)
		s.overload.RejectedQuota++
	}
	if reason == "" {
		s.sessions[sess]++
		s.mu.Unlock()
		return true
	}
	ra := s.retryAfterLocked()
	s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
		"req %d rejected: %s: %s, retry after %v", r.ReqID, flag, reason, ra)
	rej := outMsg{to: r.Client, msg: comm.Message{
		Kind:    "error",
		Command: r.Command,
		ReqID:   r.ReqID,
		Final:   true,
		Params: map[string]string{
			"error":          prefix + reason,
			flag:             "1",
			"retry_after_ms": strconv.FormatInt(ra.Milliseconds(), 10),
			"attempt":        "0",
		},
	}}
	s.mu.Unlock()
	s.send(rej)
	return false
}

// retryAfterLocked derives the admission rejection's retry-after hint from
// the observed service rate: the mean service time of finished requests,
// scaled by the load currently ahead of a resubmission and divided across
// the live pool. With no history yet it guesses 100ms.
func (s *Scheduler) retryAfterLocked() time.Duration {
	avg := 100 * time.Millisecond
	if s.svcCount > 0 {
		avg = time.Duration(int64(s.svcSum) / s.svcCount)
	}
	if avg < time.Millisecond {
		avg = time.Millisecond
	}
	alive := s.aliveCountLocked()
	if alive < 1 {
		alive = 1
	}
	depth := s.pending.len() + len(s.active) + 1
	ra := avg * time.Duration(depth) / time.Duration(alive)
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	if ra > 30*time.Second {
		ra = 30 * time.Second
	}
	return ra
}

// releaseSessionLocked returns one in-flight slot to a session.
func (s *Scheduler) releaseSessionLocked(sess string) {
	if n := s.sessions[sess]; n > 1 {
		s.sessions[sess] = n - 1
	} else {
		delete(s.sessions, sess)
	}
}

// dropSession purges a disconnected session: its queued commands are
// discarded (nobody is left to collect the replies), its running requests
// are cancelled, and its quota slots for the purged queue entries are
// released immediately. Slots held by running requests return when those
// requests retire through finishLocked.
func (s *Scheduler) dropSession(sess string) {
	if sess == "" {
		return
	}
	var cancel []uint64
	s.mu.Lock()
	dropped := s.pending.filter(func(r *Request) bool { return r.Session != sess })
	for range dropped {
		s.releaseSessionLocked(sess)
	}
	for id, ar := range s.active {
		if ar.req.Session == sess {
			cancel = append(cancel, id)
		}
	}
	if len(dropped) > 0 || len(cancel) > 0 {
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
			"session %s disconnected: %d queued dropped, %d running cancelled", sess, len(dropped), len(cancel))
	}
	s.mu.Unlock()
	sort.Slice(cancel, func(i, j int) bool { return cancel[i] < cancel[j] })
	for _, id := range cancel {
		s.rt.markCancelled(id)
	}
	// Memo subscribers of the session are cut off the same way; a shared
	// producer is only cancelled when its last subscriber goes (subGone).
	s.memo.dropSubsOf(sess)
}

// OverloadStats reports the admission-control counters.
func (s *Scheduler) OverloadStats() OverloadCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overload
}

// send performs one decided send, logging failures. A "start" bouncing off a
// dead endpoint is an immediate failure signal: the worker is declared dead
// without waiting out the heartbeat window.
func (s *Scheduler) send(o outMsg) {
	err := s.ep.Send(o.to, o.msg)
	if err == nil {
		return
	}
	s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler", "send %s to %s failed: %v", o.msg.Kind, o.to, err)
	if errors.Is(err, comm.ErrDown) && o.msg.Kind == "start" {
		s.declareDead(o.to, "start send bounced: endpoint down")
		s.pump()
		return
	}
	s.mu.Lock()
	if ar, ok := s.active[o.msg.ReqID]; ok {
		ar.stats.Errors++
	}
	s.mu.Unlock()
}

// dispatchLocked starts as many pending requests as free workers allow, in
// FIFO order (a request at the head waiting for a big group blocks later
// ones — the paper's scheduler is similarly conservative). A request asking
// for more workers than are still alive is degraded to the survivors rather
// than blocking the queue forever; with no survivors at all it fails cleanly.
func (s *Scheduler) dispatchLocked(sends *[]outMsg) {
	for s.pending.len() > 0 {
		q := s.pending.peek()
		req := q.Request
		want, degraded := s.groupSizeLocked(req.Workers)
		if want == 0 {
			s.pending.pop()
			s.releaseSessionLocked(req.Session)
			now := s.rt.Clock.Now()
			s.recordFinishedLocked(RequestStats{
				ReqID:    req.ReqID,
				Command:  req.Command,
				Received: q.at,
				Started:  now,
				End:      now,
				Errors:   1,
			})
			s.rt.Trace.Eventf(now, "scheduler", "req %d rejected: no live workers", req.ReqID)
			*sends = append(*sends, outMsg{to: req.Client, msg: comm.Message{
				Kind:    "error",
				Command: req.Command,
				ReqID:   req.ReqID,
				Final:   true,
				Params:  map[string]string{"error": "core: no live workers", "attempt": "0"},
			}})
			continue
		}
		if len(s.free) < want {
			return
		}
		members := append([]string(nil), s.free[:want]...)
		s.free = s.free[want:]
		s.pending.pop()
		// A crash-recovered request resumes under its restored attempt (the
		// client's dedupe is attempt-fenced).
		ar := &activeReq{req: req, attempt: req.Attempt, stats: RequestStats{
			ReqID:    req.ReqID,
			Command:  req.Command,
			Received: q.at,
			Started:  s.rt.Clock.Now(),
			Degraded: degraded,
		}}
		ar.regroup(members)
		s.active[req.ReqID] = ar
		if degraded {
			s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
				"req %d degraded: %d workers requested, %d alive", req.ReqID, req.Workers, want)
		}
		if req.HasSpan {
			// Its journal survived: recompute exactly the items not yet
			// streamed.
			ar.stats.BlocksRecomputed = len(req.Span)
			s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
				"req %d recovered: attempt %d, re-dispatching %d unfinished blocks", req.ReqID, ar.attempt, len(req.Span))
		}
		if w := s.walSink(); w != nil {
			w.Dispatch(req.ReqID, ar.attempt, want)
		}
		for rank, node := range members {
			s.state[node] = wsBusy
			s.busy[node] = busyRef{reqID: req.ReqID, rank: rank}
			var span []int
			if req.HasSpan {
				span = recoverSpanFor(req.Span, rank, want)
			}
			*sends = append(*sends, outMsg{to: node, msg: ar.start(rank, span, req.HasSpan)})
		}
	}
}

// groupSizeLocked sizes the work group of a request asking for want workers:
// at most the configured pool (asking for more is not a fault), and degraded
// to the live workers when part of the pool is dead. Zero means none is left.
// Fresh dispatches and full restarts size their groups the same way.
func (s *Scheduler) groupSizeLocked(want int) (n int, degraded bool) {
	if want < 1 {
		want = 1
	}
	if want > s.rt.cfg.Workers {
		want = s.rt.cfg.Workers
	}
	if alive := s.aliveCountLocked(); want > alive {
		return alive, true
	}
	return want, false
}

// aliveCountLocked counts the schedulable workers (free or busy): the
// dispatch strength. Cordoned nodes are alive but deliberately out of the
// pool.
func (s *Scheduler) aliveCountLocked() int {
	n := 0
	for _, st := range s.state {
		if st == wsFree || st == wsBusy {
			n++
		}
	}
	return n
}

// staleEpochLocked reports whether a worker report comes from a fenced (old)
// incarnation of its node. Unstamped reports (epoch 0) are treated as
// current.
func (s *Scheduler) staleEpochLocked(r *Report) bool {
	cur, known := s.epochs[r.Worker]
	return r.Epoch > 0 && known && r.Epoch < cur
}

// noteJoin handles a rebooted worker's registration. The join carries the
// new incarnation's epoch; accepting it fences every frame of older
// incarnations, and the node is schedulable again at once.
func (s *Scheduler) noteJoin(r *Report) {
	node, epoch := r.Worker, r.Epoch
	var sends []outMsg
	s.mu.Lock()
	st, known := s.state[node]
	if !known || epoch <= s.epochs[node] {
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
			"join from %s (epoch %d) ignored", node, epoch)
		s.mu.Unlock()
		return
	}
	if st != wsDead {
		// Early rejoin: the node rebooted before the failure detector gave
		// up on its old incarnation. Retire the old membership in place —
		// failing over its rank — without fencing the node itself (the new
		// incarnation is the one joining).
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
			"worker %s superseded by its own rejoin (epoch %d)", node, epoch)
		delete(s.cordonPending, node)
		s.removeWorkerLocked(node, &sends)
	}
	s.epochs[node] = epoch
	now := s.rt.Clock.Now()
	s.lastSeen[node] = now
	s.idleStreak[node] = 0
	s.state[node] = wsFree
	s.free = append(s.free, node)
	s.rt.Trace.Eventf(now, "scheduler", "worker %s rejoined (epoch %d): schedulable", node, epoch)
	s.mu.Unlock()
	for _, o := range sends {
		s.send(o)
	}
}

// noteCordon administratively drains one worker for a rolling restart: a
// free worker is cordoned immediately; a busy one finishes its
// in-flight rank first (noteDone completes the transition).
func (s *Scheduler) noteCordon(node string) {
	s.mu.Lock()
	st, known := s.state[node]
	switch {
	case !known || st == wsDead || st == wsCordoned:
		// Nothing to drain.
	case st == wsBusy:
		s.cordonPending[node] = true
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
			"worker %s cordoned: waiting for in-flight rank to drain", node)
	default:
		s.dropFreeLocked(node)
		s.state[node] = wsCordoned
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler", "worker %s cordoned", node)
	}
	s.mu.Unlock()
}

// noteDone processes a worker's completion report. The sender is freed
// unconditionally (even when the report is stale) so workers never leak from
// the pool; the completion is attributed to the request only when it matches
// the current attempt and the rank is still outstanding.
func (s *Scheduler) noteDone(reqID uint64, r *Report) {
	node := r.Worker
	s.mu.Lock()
	if s.staleEpochLocked(r) {
		// Completion report from a fenced incarnation: it must neither free
		// the new incarnation nor complete a rank the journal re-issued.
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
			"stale wdone from fenced incarnation of %s dropped", node)
		s.mu.Unlock()
		return
	}
	if st, known := s.state[node]; known && st == wsBusy {
		delete(s.busy, node)
		s.idleStreak[node] = 0
		s.lastSeen[node] = s.rt.Clock.Now()
		if s.cordonPending[node] {
			// The rank a rolling restart was waiting on has drained (its
			// journal marks flushed with this wdone): complete the cordon.
			delete(s.cordonPending, node)
			s.state[node] = wsCordoned
			s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
				"worker %s drained: cordon complete", node)
		} else {
			s.state[node] = wsFree
			s.free = append(s.free, node)
		}
	}
	ar, ok := s.active[reqID]
	if !ok {
		s.mu.Unlock()
		return
	}
	rank := r.Rank
	if r.Attempt != ar.attempt || rank < 0 || rank >= len(ar.done) || ar.done[rank] {
		// Stale attempt or duplicate rank report: the work was already
		// accounted (or superseded); only the worker-freeing above matters.
		s.mu.Unlock()
		return
	}
	ar.done[rank] = true
	ar.doneCount++
	ar.stats.Probes.Compute += r.Probes.Compute
	ar.stats.Probes.Read += r.Probes.Read
	ar.stats.Probes.Send += r.Probes.Send
	ar.stats.Streams += r.Streams
	ar.stats.Uncached += r.Uncached
	if r.Err != "" {
		ar.stats.Errors++
	}
	if ar.doneCount == len(ar.done) {
		s.finishLocked(reqID, ar)
	}
	s.mu.Unlock()
}

// maxFinished bounds the finished-request table, so a server that runs for
// weeks keeps the newest records instead of all of them.
const maxFinished = 8192

// recordFinishedLocked files a finished request's record, evicting the
// oldest one once the table is full. Every streamed packet is one fabric
// message, so Frames is filed from Streams.
func (s *Scheduler) recordFinishedLocked(st RequestStats) {
	if len(s.finishedOrder) == maxFinished {
		delete(s.finished, s.finishedOrder[0])
		s.finishedOrder = s.finishedOrder[1:]
		s.finishedDropped++
	}
	st.Frames = st.Streams
	s.finished[st.ReqID] = st
	s.finishedOrder = append(s.finishedOrder, st.ReqID)
}

// finishLocked retires a request: records its end time, moves it to the
// finished table, releases its session quota slot and stream-credit state,
// and feeds the service-rate estimate behind retry-after hints.
func (s *Scheduler) finishLocked(reqID uint64, ar *activeReq) {
	ar.stats.End = s.rt.Clock.Now()
	s.recordFinishedLocked(ar.stats)
	delete(s.active, reqID)
	s.releaseSessionLocked(ar.req.Session)
	if d := ar.stats.End - ar.stats.Started; d >= 0 {
		s.svcSum += d
		s.svcCount++
	}
	s.rt.dropWorkQueue(reqID)
	s.rt.clearCancelled(reqID)
	s.rt.flow.drop(reqID)
}

// noteSpan records a rank's declared work span in the request's progress
// journal (created lazily on the first declaration of a journaled request).
func (s *Scheduler) noteSpan(reqID uint64, r *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staleEpochLocked(r) {
		return
	}
	ar, ok := s.active[reqID]
	if !ok || !ar.req.Journal || r.Attempt != ar.attempt {
		return
	}
	if r.Rank < 0 || r.Rank >= len(ar.done) {
		return
	}
	if ar.members[r.Rank] != r.Worker {
		return // stale declaration from a replaced executor
	}
	if ar.journal == nil {
		ar.journal = newBlockJournal()
	}
	ar.journal.noteSpan(r.Rank, r.Span)
	if w := s.walSink(); w != nil {
		w.JournalSpan(reqID, ar.attempt, r.Rank, r.Span)
	}
}

// noteMark records one completed span item (the eager per-block watermark).
func (s *Scheduler) noteMark(reqID uint64, r *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staleEpochLocked(r) {
		return
	}
	ar, ok := s.active[reqID]
	if !ok || ar.journal == nil || r.Attempt != ar.attempt {
		return
	}
	if r.Rank < 0 || r.Rank >= len(ar.done) {
		return
	}
	ar.journal.markDone(r.Rank, r.Item)
	if w := s.walSink(); w != nil {
		// bframes rides on the eager wmark only; heartbeat-piggybacked
		// marks stay out of the WAL (a lost wmark merely makes recovery
		// recompute the block, which the client dedupes).
		w.JournalMark(reqID, ar.attempt, r.Rank, r.Item, r.BFrames)
	}
}

// noteHeartbeat refreshes the liveness record of the sending worker. A
// worker that reports idle twice in a row while the scheduler believes it
// busy has lost its "start" or its "wdone" in transit (two beats rule out an
// in-flight report racing one beat): the worker is returned to the pool and
// the orphaned rank failed over.
func (s *Scheduler) noteHeartbeat(r *Report) {
	node := r.Worker
	var sends []outMsg
	s.mu.Lock()
	st, known := s.state[node]
	if !known || st == wsDead || s.staleEpochLocked(r) {
		// Unknown node, fenced node, or a late beat from a fenced
		// incarnation racing its successor's join: dropped, so a zombie
		// cannot keep a dead membership entry looking alive.
		s.mu.Unlock()
		return
	}
	s.lastSeen[node] = s.rt.Clock.Now()
	s.applyWatermarkLocked(r)
	if st == wsBusy && r.Idle {
		s.idleStreak[node]++
		if s.idleStreak[node] >= 2 {
			ref := s.busy[node]
			delete(s.busy, node)
			s.state[node] = wsFree
			s.free = append(s.free, node)
			s.idleStreak[node] = 0
			s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
				"worker %s idle but assigned req %d rank %d: message lost, failing rank over", node, ref.reqID, ref.rank)
			s.failoverRankLocked(node, ref.reqID, ref.rank, "message to/from "+node+" lost", &sends)
		}
	} else {
		s.idleStreak[node] = 0
	}
	s.mu.Unlock()
	for _, o := range sends {
		s.send(o)
	}
}

// applyWatermarkLocked merges a heartbeat's piggybacked completed-item
// watermark into the progress journal: redundancy for eagerly-sent wmark
// messages lost in flight.
func (s *Scheduler) applyWatermarkLocked(r *Report) {
	if r.MarkReq == 0 {
		return
	}
	ar, ok := s.active[r.MarkReq]
	if !ok || ar.journal == nil || r.Attempt != ar.attempt {
		return
	}
	if r.Rank < 0 || r.Rank >= len(ar.done) {
		return
	}
	for _, it := range r.Marks {
		ar.journal.markDone(r.Rank, it)
	}
}

// monitor is the failure detector: it wakes every heartbeat interval and
// declares dead any worker silent for the (clamped) failure window.
func (s *Scheduler) monitor() {
	every := s.rt.cfg.FT.HeartbeatEvery
	fail := s.rt.cfg.FT.FailAfter
	if fail < 2*every {
		fail = 2 * every
	}
	for {
		s.rt.Clock.Sleep(every)
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		now := s.rt.Clock.Now()
		var suspects []string
		for node, st := range s.state {
			if st != wsDead && now-s.lastSeen[node] >= fail {
				suspects = append(suspects, node)
			}
		}
		s.mu.Unlock()
		if len(suspects) == 0 {
			continue
		}
		sort.Strings(suspects) // deterministic order regardless of map iteration
		for _, node := range suspects {
			s.declareDead(node, "no heartbeat for "+fail.String())
		}
		s.pump()
	}
}

// declareDead transitions a worker to the dead state, fences it so a merely
// slow or partitioned node cannot act on the system again, and fails over
// whatever it was running. Idempotent.
func (s *Scheduler) declareDead(node, reason string) {
	s.fence(node, "declared dead: "+reason)
}

// fence takes a live worker out of membership, failing over its rank, and
// crashes its process. event names the removal in the trace.
func (s *Scheduler) fence(node, event string) {
	var sends []outMsg
	s.mu.Lock()
	st, known := s.state[node]
	if !known || st == wsDead {
		s.mu.Unlock()
		return
	}
	s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler", "worker %s %s", node, event)
	delete(s.cordonPending, node)
	s.removeWorkerLocked(node, &sends)
	s.mu.Unlock()
	s.rt.killWorker(node)
	for _, o := range sends {
		s.send(o)
	}
}

// dropFreeLocked takes a node off the free list, if it is there.
func (s *Scheduler) dropFreeLocked(node string) {
	for i, n := range s.free {
		if n == node {
			s.free = append(s.free[:i], s.free[i+1:]...)
			return
		}
	}
}

// removeWorkerLocked takes a worker out of membership: state dead, off the
// free list, busy rank failed over. Fencing the actual node (crashing its
// process) is the caller's business — a rejoin supersession must not kill
// the incarnation that is joining.
func (s *Scheduler) removeWorkerLocked(node string, sends *[]outMsg) {
	s.state[node] = wsDead
	s.dropFreeLocked(node)
	ref, wasBusy := s.busy[node]
	delete(s.busy, node)
	if wasBusy {
		s.failoverRankLocked(node, ref.reqID, ref.rank, "worker "+node+" died", sends)
	}
}

// failoverRankLocked recovers one orphaned rank of a request. Losing a
// non-master rank of a statically-partitioned command re-runs just that rank
// under the same attempt (the master is still gathering and dedupes by
// rank). Losing the master — whose partial gather dies with it — or any rank
// of a command using the dynamic work queue (claimed items die with the
// claimant) forces a full restart under a new attempt number. Either way the
// recovery action joins redisQ, and the pump that follows every failover
// places it as soon as a worker is free; past the retry budget the request
// fails cleanly.
func (s *Scheduler) failoverRankLocked(node string, reqID uint64, rank int, reason string, sends *[]outMsg) {
	ar := s.active[reqID]
	if ar == nil || rank < 0 || rank >= len(ar.done) || ar.done[rank] {
		return
	}
	if ar.members[rank] != node {
		// Stale busy-ref: a full restart already reassigned this rank to
		// another worker; there is nothing left to recover for this node.
		return
	}
	if ar.retries >= ar.req.Retries {
		s.failRequestLocked(reqID, ar, reason+" (retries exhausted)", sends)
		return
	}
	ar.retries++
	ar.stats.Retries++
	rd := redispatch{reqID: reqID, attempt: ar.attempt, rank: rank}
	if rank == 0 || s.rt.hasDynWork(reqID) {
		ar.attempt++
		rd = redispatch{reqID: reqID, attempt: ar.attempt, rank: -1}
	} else if ar.journal != nil && ar.journal.declared(rank) {
		// Block-granular redistribution: re-issue only what the journal
		// says the dead rank left unfinished, under the same attempt.
		rd.span = ar.journal.unfinished(rank)
		rd.hasSpan = true
		ar.stats.Redistributions++
		ar.stats.BlocksRecomputed += len(rd.span)
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
			"req %d rank %d: redistributing %d unfinished blocks (%d journaled done)",
			reqID, rank, len(rd.span), ar.journal.doneCount(rank))
	}
	s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
		"req %d retry %d/%d (%s): attempt %d rank %d", reqID, ar.retries, ar.req.Retries, reason, rd.attempt, rd.rank)
	s.redisQ = append(s.redisQ, rd)
}

// wfail is the scheduler's stand-in report for a rank that will never reach
// the master's gather.
func wfail(reqID uint64, rank, attempt int, mute bool, err string) comm.Message {
	return comm.Message{Kind: "wfail", ReqID: reqID, Body: &Report{Rank: rank, Attempt: attempt, Mute: mute, Err: err}}
}

// unblockMasterLocked covers for ranks that will never report to the current
// gather of reqID: when the request's master is alive and still gathering, it
// receives one muted "wfail" per outstanding rank so the gather unwinds
// without talking to the client — the scheduler has already decided (and
// reported) the request's fate.
func (s *Scheduler) unblockMasterLocked(reqID uint64, ar *activeReq, attempt int, sends *[]outMsg) {
	master := ar.members[0]
	if s.state[master] != wsBusy || s.busy[master].reqID != reqID {
		return
	}
	for rank := 1; rank < len(ar.done); rank++ {
		if ar.done[rank] {
			continue
		}
		*sends = append(*sends, outMsg{to: master, msg: wfail(reqID, rank, attempt, true,
			"core: rank "+strconv.Itoa(rank)+" abandoned by scheduler")})
	}
}

// failRequestLocked retires a request as failed and tells the client, which
// may be blocked in Collect waiting on a master that no longer exists.
func (s *Scheduler) failRequestLocked(reqID uint64, ar *activeReq, reason string, sends *[]outMsg) {
	ar.stats.Errors++
	s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler", "req %d failed: %s", reqID, reason)
	s.unblockMasterLocked(reqID, ar, ar.attempt, sends)
	s.finishLocked(reqID, ar)
	*sends = append(*sends, outMsg{to: ar.req.Client, msg: comm.Message{
		Kind:    "error",
		Command: ar.req.Command,
		ReqID:   reqID,
		Final:   true,
		Params: map[string]string{
			"error":   "core: " + reason,
			"attempt": strconv.Itoa(ar.attempt),
		},
	}})
}

// drainRedispatchLocked services queued recovery actions that can proceed
// now; the rest stay queued for the next pump (every wdone and heartbeat
// pumps, so progress is re-evaluated continuously).
func (s *Scheduler) drainRedispatchLocked(sends *[]outMsg) {
	var keep []redispatch
	for _, rd := range s.redisQ {
		ar := s.active[rd.reqID]
		if ar == nil || ar.attempt != rd.attempt {
			continue // superseded or finished while it waited for a worker
		}
		if rd.rank >= 0 {
			if rd.rank >= len(ar.done) || ar.done[rd.rank] {
				continue
			}
			if cur := ar.members[rd.rank]; s.state[cur] == wsBusy {
				if ref, busyNow := s.busy[cur]; busyNow && ref.reqID == rd.reqID && ref.rank == rd.rank {
					// A duplicated or stale recovery action: the rank is
					// already running on a live worker. Re-dispatching would
					// plant a second executor and a conflicting busy-ref.
					s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
						"req %d rank %d redispatch dropped: already running on %s", rd.reqID, rd.rank, cur)
					continue
				}
			}
			if len(s.free) > 0 {
				node := s.free[0]
				s.free = s.free[1:]
				s.state[node] = wsBusy
				s.busy[node] = busyRef{reqID: rd.reqID, rank: rd.rank}
				ar.members[rd.rank] = node
				s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
					"req %d rank %d re-dispatched to %s", rd.reqID, rd.rank, node)
				*sends = append(*sends, outMsg{to: node, msg: ar.start(rd.rank, rd.span, rd.hasSpan)})
			} else if s.stalledLocked(ar) {
				// Every live worker is tied up in this same request, so none
				// will ever free: the master is gathering and waiting for
				// exactly this rank. Abandon the rank with a failure notice
				// so the gather completes with an error instead of hanging.
				ar.done[rd.rank] = true
				ar.doneCount++
				ar.stats.Errors++
				s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
					"req %d rank %d abandoned: no worker available", rd.reqID, rd.rank)
				*sends = append(*sends, outMsg{to: ar.members[0], msg: wfail(rd.reqID, rd.rank, rd.attempt, false,
					"core: rank "+strconv.Itoa(rd.rank)+" lost and no worker available")})
				if ar.doneCount == len(ar.done) {
					s.finishLocked(rd.reqID, ar)
				}
			} else {
				keep = append(keep, rd)
			}
			continue
		}
		// Full restart under the (already bumped) attempt number.
		want, degraded := s.groupSizeLocked(ar.req.Workers)
		if want == 0 {
			s.failRequestLocked(rd.reqID, ar, "no live workers", sends)
			continue
		}
		if degraded {
			ar.stats.Degraded = true
		}
		if len(s.free) < want {
			keep = append(keep, rd)
			continue
		}
		// When the restart was forced by a non-master loss (dynamic-work
		// command), the previous attempt's master is still alive and
		// gathering; unwind it before the group is reformed.
		s.unblockMasterLocked(rd.reqID, ar, rd.attempt-1, sends)
		members := append([]string(nil), s.free[:want]...)
		s.free = s.free[want:]
		ar.regroup(members)
		// A new attempt starts with a clean journal: old-attempt spans and
		// watermarks are meaningless now.
		ar.journal = nil
		s.rt.dropWorkQueue(rd.reqID) // the new attempt re-claims dynamic work from scratch
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "scheduler",
			"req %d restarted as attempt %d with %d workers", rd.reqID, rd.attempt, want)
		if w := s.walSink(); w != nil {
			w.Dispatch(rd.reqID, rd.attempt, want)
		}
		for rank, node := range members {
			s.state[node] = wsBusy
			s.busy[node] = busyRef{reqID: rd.reqID, rank: rank}
			*sends = append(*sends, outMsg{to: node, msg: ar.start(rank, nil, false)})
		}
	}
	s.redisQ = keep
}

// stalledLocked reports that waiting cannot produce a free worker for this
// request: none is free now, and the only busy live worker is the request's
// own master — which is parked in its gather waiting for exactly the rank we
// are trying to place. Busy workers other than that master (whatever request
// they serve) run bounded commands and will free eventually.
func (s *Scheduler) stalledLocked(ar *activeReq) bool {
	if len(s.free) > 0 {
		return false
	}
	for node, st := range s.state {
		if st == wsBusy && node != ar.members[0] {
			return false
		}
	}
	return true
}

// maybeFinish completes shutdown once draining and idle: it stops all
// workers, closes the scheduler inbox and reports true.
func (s *Scheduler) maybeFinish() bool {
	s.mu.Lock()
	idle := s.draining && len(s.active) == 0 && s.pending.len() == 0
	if idle {
		s.stopped = true
	}
	s.mu.Unlock()
	if !idle {
		return false
	}
	// Latch the stopping flag before broadcasting: no new worker incarnation
	// may spawn past this point, so every incarnation that exists when the
	// broadcast runs is guaranteed to receive its shutdown.
	s.rt.noteStopping()
	for _, w := range s.rt.Workers {
		// A dead worker's endpoint is closed; ErrDown is expected. The send
		// resolves the node's current endpoint, so a rejoined incarnation
		// receives it too.
		s.ep.Send(w.node, comm.Message{Kind: "shutdown"})
	}
	s.ep.Close()
	return true
}

// Stats returns the record of a finished request, while it is among the
// newest maxFinished.
func (s *Scheduler) Stats(reqID uint64) (RequestStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.finished[reqID]
	return st, ok
}

// InFlight reports the number of requests queued or running — the quantity a
// graceful shutdown polls toward zero. Memo subscribers whose streams are
// still being delivered count: a drain must not cut off an attached viewer.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending.len() + len(s.active) + s.memo.liveSubs()
}

// Draining reports whether the admission gate is in drain mode.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejecting
}

// FinishedCount reports how many finished-request records are retained.
func (s *Scheduler) FinishedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.finished)
}

// FinishedDropped reports how many finished-request records were evicted
// to keep the table bounded.
func (s *Scheduler) FinishedDropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finishedDropped
}

// LiveWorkers reports the dispatch strength: workers currently schedulable
// (free or busy). Cordoned nodes are alive but do not count; a rejoin
// raises it back toward the configured pool size.
func (s *Scheduler) LiveWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aliveCountLocked()
}

// workerState reports the membership state of one node (wsFree when
// unknown, matching the state map's zero value).
func (s *Scheduler) workerState(node string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state[node]
}

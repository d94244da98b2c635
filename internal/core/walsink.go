package core

// This file is control-plane crash durability, scheduler side: the hooks
// that feed the write-ahead log and the entry points a recovery uses to put
// restored state back. The WAL itself (framing, fsync policy, segments,
// checkpoints) lives in internal/wal and is wired up by the root package;
// the scheduler only reports events through the narrow WALSink interface and
// accepts recovered requests and memo entries back. Keeping the arrow this
// direction means the scheduler never learns about files, and a WAL-less
// system pays exactly one nil check per event.

import (
	"viracocha/internal/comm"
	"viracocha/internal/dms"
)

// WALSink receives the scheduler-side events the write-ahead log persists.
// Calls arrive under scheduler locks, so implementations must not call back
// into the scheduler. A nil sink in Config disables control-plane logging.
type WALSink interface {
	// Dispatch records that reqID started (or restarted) attempt with a
	// group of want ranks. Recovery needs the group size to know when the
	// declared spans cover the whole work set.
	Dispatch(reqID uint64, attempt, want int)
	// JournalSpan records one rank's declared work span (the wspan frame).
	JournalSpan(reqID uint64, attempt, rank int, items []int, streamed bool)
	// JournalMark records one completed span item (the wmark frame), with
	// bframes the number of block-tagged partial frames the executor
	// streamed for it (-1 when unknown): recovery replays a completed
	// block from retained frames only when all bframes of it survived.
	JournalMark(reqID uint64, attempt, rank, item, bframes int)
	// MemoStore records a completed memo entity's canonical replay log.
	MemoStore(key, dataset string, step int, log []comm.Message)
	// MemoInvalidate records a dependency invalidation of memo entries.
	MemoInvalidate(dataset string, step int)
}

// walSinkLocked fetches the configured sink; callers nil-check the result.
func (s *Scheduler) walSink() WALSink { return s.rt.cfg.WAL }

// AdmitRecovered re-admits a request reconstructed from the WAL. It applies
// the normal admission gates (a restarted server can still be overloaded),
// then queues the command annotated with its recovery plan: attempt is the
// highest attempt the log recorded (the client discards frames of older
// attempts wholesale), and span — when hasSpan — is exactly the set of items
// the journals show as not yet streamed to the client, so the new dispatch
// recomputes only those. Memo-enabled requests take the memoization path
// instead and ignore the plan: a recovered cache entry replays byte-
// identically, and a missing one triggers a fresh full extraction whose
// stream the client dedupes. Reports whether the command was accepted.
func (s *Scheduler) AdmitRecovered(m comm.Message, span []int, hasSpan bool, attempt int) bool {
	r := parseRequest(m, &s.rt.cfg)
	if r.Memo {
		return s.memoAdmit(r)
	}
	r.Attempt, r.Span, r.HasSpan = attempt, span, hasSpan
	if !s.admit(r) {
		return false
	}
	s.pump()
	return true
}

// recoverSpanFor deals a recovered span round-robin across the new group:
// rank r of want gets items span[r], span[r+want], ... Which rank recomputes
// which block is irrelevant to the client (tagged packets are assembled in
// canonical block order), so the plan need not survive group-size changes.
func recoverSpanFor(span []int, rank, want int) []int {
	var out []int
	for i := rank; i < len(span); i += want {
		out = append(out, span[i])
	}
	return out
}

// RestoreMemo re-inserts one recovered memo entity into the result cache,
// mirroring the store path of memoProducerDone (canonicalization included,
// so a log that was logged pre-canonical stays harmless). Reports whether
// the cache accepted the bytes — a restored server with a smaller budget may
// refuse, which only costs a recompute on the next hit.
func (s *Scheduler) RestoreMemo(key, dataset string, step int, log []comm.Message) bool {
	mt := s.memo
	clean, size := canonicalMemoLog(log)
	ent := &memoEntity{key: key, log: clean, size: size, dep: memoDep{dataset: dataset, step: step}}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	id := mt.rt.DMS.Names.Resolve(dms.MemoItem(key))
	if _, ok := mt.cache.PutOK(id, ent, false); ok {
		mt.stored[key] = ent.dep
		return true
	}
	return false
}

// Kill tears the scheduler down as a crash would: no drain, no shutdown
// broadcast, no snapshot. Active requests are cancelled (waking producers
// parked on stream credit so their goroutines unwind) and the scheduler's
// endpoint closes, which stops the loop; the monitor sees stopped.
func (s *Scheduler) Kill() {
	s.mu.Lock()
	s.stopped = true
	s.rejecting = true
	ids := make([]uint64, 0, len(s.active))
	for id := range s.active {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.rt.markCancelled(id)
	}
	s.ep.Close()
}

// Kill is the hard-kill teardown: the SIGKILL equivalent for an in-process
// system. Nothing drains, nothing is flushed, no goodbye is said — workers
// crash, the scheduler's endpoints close, and whatever state was not already
// in the write-ahead log is lost, exactly as a power cut would leave it. The
// stopping latch is set first so no worker incarnation respawns into the
// rubble.
func (rt *Runtime) Kill() {
	rt.noteStopping()
	for _, w := range rt.Workers {
		w.crash("hard kill")
	}
	rt.Sched.Kill()
}

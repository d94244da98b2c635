package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dms"
	"viracocha/internal/vclock"
)

// This file implements cross-session result memoization: a content-addressed
// cache of completed extraction streams in the scheduler, plus in-flight
// coalescing so identical concurrent requests share one extraction.
//
// A memo-enabled command is never queued under the client's request ID.
// Instead the scheduler looks the request up by its canonical key
// (Request.MemoKey) and
//
//   - on a cache hit replays the stored packet log to the client through a
//     dedicated forwarder actor;
//   - on an in-flight match attaches the client as a subscriber of the
//     running extraction: the forwarder replays the already-relayed prefix of
//     the producer's packet log and then multicasts the remainder live;
//   - on a miss dispatches one producer run under a fresh internal request ID
//     whose "client" is a relay actor. The relay acks the producer's stream
//     credits immediately (so no subscriber can stall the extraction) and
//     appends every packet to the entry's log, which the subscribers'
//     forwarders consume at their own pace — each paced by its own PR 2
//     credit window against its own request ID.
//
// Completed logs are canonicalized (duplicate and stale-attempt packets
// dropped by the clients' own StreamAssembler rule) and stored as derived DMS
// entities in a scheduler-owned cache charged against the server-wide memory
// budget, byte-accounted exactly. The cache is the only place a result
// lives: the table's index of it forgets whatever the cache evicts, and
// nothing is named in the DMS name server or logged to the WAL.

// MemoStats aggregates the result-memoization counters.
type MemoStats struct {
	// Hits counts requests served without a new extraction: replays of a
	// completed cached result plus attachments to an in-flight extraction.
	Hits int64
	// Misses counts requests that had to dispatch a producer extraction.
	Misses int64
	// Evictions counts memo entries pushed out of the result cache by the
	// shared memory budget or the cache's own capacity.
	Evictions int64
	// RejectedBudget counts completed results that could not be cached
	// because the budget had no room even after eviction.
	RejectedBudget int64
	// Entries and BytesCached describe the resident result cache.
	Entries     int
	BytesCached int64
	// InFlight is the number of extractions currently being produced;
	// LiveSubscribers the number of attached streams still being delivered.
	InFlight        int
	LiveSubscribers int
}

// memoEntity is the first-class derived DMS entity holding one completed
// result: the canonical packet log of the extraction stream. Size is the
// summed wire size of the packets — exactly the bytes a replay puts on the
// fabric.
type memoEntity struct {
	key  string
	log  []comm.Message
	size int64
}

func (e *memoEntity) SizeBytes() int64 { return e.size }

// DerivedEntity marks memo results re-computable.
func (e *memoEntity) DerivedEntity() {}

// memoSub is one subscriber of a memo entry: a client request being served by
// replay/multicast instead of its own extraction. Its Request names the
// subscriber's ID, client, session and stream window.
type memoSub struct {
	req *Request
	hit bool
	at  time.Duration // admission time
}

// memoEntry is one extraction being shared: the growing packet log, the
// producer's identity, and the gate subscribers park on while the log is
// shorter than their replay position. A cached replay is represented as an
// already-complete entry (prodID 0) over the stored log.
type memoEntry struct {
	key    string
	prodID uint64
	clock  vclock.Clock

	mu       sync.Mutex
	log      []comm.Message
	complete bool // final packet appended (or cached log attached)
	failed   bool // producer ended in an error: do not store
	doomed   bool // abandoned mid-flight: do not store
	gates    []*vclock.Gate
	subs     int // subscribers ever attached
	live     int // subscribers still being delivered
}

// append logs one relayed packet and wakes parked forwarders. The final
// packet latches completion (and failure, if it is an error). The packet's
// payload checksum is taken here, once for all its subscribers' frames.
func (e *memoEntry) append(m comm.Message) {
	m.SealPayload()
	e.mu.Lock()
	e.log = append(e.log, m)
	if m.Final {
		e.complete = true
		if m.Kind == "error" {
			e.failed = true
		}
	}
	gates := e.gates
	e.gates = nil
	e.mu.Unlock()
	for _, g := range gates {
		g.Open()
	}
}

// at returns the packet at replay position pos. When the log is still
// shorter, it returns a registered gate the caller must wait on before
// retrying; when the log has ended before pos, it returns done.
func (e *memoEntry) at(pos int) (m comm.Message, ok bool, wait *vclock.Gate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pos < len(e.log) {
		return e.log[pos], true, nil
	}
	if e.complete {
		return comm.Message{}, false, nil
	}
	g := vclock.NewGate(e.clock)
	e.gates = append(e.gates, g)
	return comm.Message{}, false, g
}

// wakeAll opens every parked forwarder gate without appending, so a
// subscriber cancelled while waiting for log growth observes its flag.
func (e *memoEntry) wakeAll() {
	e.mu.Lock()
	gates := e.gates
	e.gates = nil
	e.mu.Unlock()
	for _, g := range gates {
		g.Open()
	}
}

func (e *memoEntry) subCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.subs
}

// memoSubRef indexes a live subscriber for cancel/disconnect routing.
type memoSubRef struct {
	entry *memoEntry
	sub   *memoSub
}

// memoTable is the scheduler's result-memoization state: the completed-result
// cache (derived DMS entities under the shared budget) with its key index,
// the in-flight entry map keyed by canonical request key, and the
// live-subscriber index.
//
// Lock order: s.mu and mt.mu are never held together except s.mu → mt.mu
// (InFlight); mt.mu → e.mu and mt.mu → the cache's lock are allowed, the
// reverse is not.
type memoTable struct {
	rt    *Runtime
	cache *dms.Cache
	// fwd is the endpoint every forwarder sends through; nothing is ever
	// sent to it.
	fwd *comm.Endpoint

	mu       sync.Mutex
	inflight map[string]*memoEntry
	// ids indexes the cache by canonical key: exactly the cached results,
	// because every insert and removal of the cache happens under mu and
	// prunes it. nextID numbers the cache's items; the cache is the
	// table's own, so its IDs need no name server.
	ids    map[string]dms.ItemID
	nextID dms.ItemID
	subs   map[uint64]*memoSubRef
	hits   int64
	misses int64
}

func newMemoTable(rt *Runtime) *memoTable {
	pol := rt.cfg.DMS.PolicyName
	if pol == "" {
		pol = "lru"
	}
	cache := dms.NewCache("sched/memo", rt.cfg.DMS.L1Bytes, dms.NewPolicy(pol))
	cache.Budget = rt.DMS.Budget()
	return &memoTable{
		rt:       rt,
		cache:    cache,
		fwd:      rt.Net.Endpoint("memo.fwd"),
		inflight: map[string]*memoEntry{},
		ids:      map[string]dms.ItemID{},
		subs:     map[uint64]*memoSubRef{},
	}
}

// acceptCommand parses an arriving command and routes it: memo-enabled
// requests go through the memoization table, everything else through plain
// admission. It reports whether anything new was queued (and the pump should
// run).
func (s *Scheduler) acceptCommand(m comm.Message) bool {
	r := parseRequest(m, &s.rt.cfg)
	if !r.Memo {
		return s.admit(r)
	}
	return s.memoAdmit(r)
}

// memoAdmit admits one memo-enabled request. It applies exactly the same
// admission gates as the direct path (each subscriber holds its own session
// quota slot until its stream is fully delivered), then serves the request by
// cache replay, in-flight attachment, or a fresh producer dispatch. Only the
// last queues work, so only it returns true.
func (s *Scheduler) memoAdmit(r *Request) bool {
	if !s.admitGate(r) {
		return false
	}
	mt := s.memo
	key := r.MemoKey
	sub := &memoSub{req: r, at: s.rt.Clock.Now()}

	// Identical extraction already running: attach as a subscriber. The
	// forwarder replays the already-relayed prefix from the log and streams
	// the rest live. Asked before the cache, because memoProducerDone moves a
	// key from in-flight to cached in one critical section: a key that is not
	// in flight here has either never run or is already stored — the other
	// order lets a request that follows its twin's final packet miss both.
	if e := mt.attach(key, sub); e != nil {
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "memo",
			"req %d: attached to in-flight %s (producer req %d)", r.ReqID, key, e.prodID)
		s.rt.Clock.Go(func() { s.runMemoForwarder(e, sub) })
		return false
	}

	// Completed result in the cache: replay it wholesale through a
	// per-request entry over the stored log.
	if ent := mt.lookup(key); ent != nil {
		e := &memoEntry{key: key, clock: s.rt.Clock, log: ent.log, complete: true}
		mt.registerSub(e, sub, true)
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "memo",
			"req %d: hit %s, replaying cached result (%d packets)", r.ReqID, key, len(ent.log))
		s.rt.Clock.Go(func() { s.runMemoForwarder(e, sub) })
		return false
	}

	// Miss: dispatch one producer under its own internal request ID, with a
	// relay actor as its client, and subscribe this request to it.
	prodID := s.rt.NextReqID()
	e := mt.begin(key, prodID, s.rt.Clock)
	mt.registerSub(e, sub, false)
	relay := s.rt.Net.Endpoint(fmt.Sprintf("memo%d", prodID))
	s.rt.Clock.Go(func() { s.runMemoRelay(e, relay) })
	s.rt.Clock.Go(func() { s.runMemoForwarder(e, sub) })

	// The producer belongs to no client session: subscribers hold the quota
	// slots, and a disconnect must cancel subscribers (which cancels an
	// abandoned producer), never the shared extraction directly.
	prod := *r
	prod.ReqID = prodID
	prod.Client, prod.Session, prod.Memo = relay.Name(), relay.Name(), false

	s.rt.Trace.Eventf(s.rt.Clock.Now(), "memo",
		"req %d: miss %s, producing as req %d", r.ReqID, key, prodID)
	s.mu.Lock()
	s.pending.push(&prod, s.rt.Clock.Now())
	s.mu.Unlock()
	return true
}

// lookup fetches a completed cached result, counting a memo hit.
func (mt *memoTable) lookup(key string) *memoEntity {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	id, ok := mt.ids[key]
	if !ok {
		return nil
	}
	item, ok := mt.cache.Get(id)
	if !ok {
		return nil
	}
	mt.hits++
	return item.(*memoEntity)
}

// storeLocked inserts a completed result into the cache and indexes it,
// dropping from the index every result the insert evicted. Reports whether
// the cache took it. Caller holds mt.mu.
func (mt *memoTable) storeLocked(ent *memoEntity) bool {
	id, ok := mt.ids[ent.key]
	if !ok {
		mt.nextID++
		id = mt.nextID
	}
	evicted, ok := mt.cache.PutOK(id, ent, false)
	for _, ev := range evicted {
		delete(mt.ids, ev.Item.(*memoEntity).key)
	}
	if ok {
		mt.ids[ent.key] = id
	}
	return ok
}

// attach subscribes to a running extraction of the same key, counting a memo
// hit; doomed (abandoned) entries refuse new subscribers.
func (mt *memoTable) attach(key string, sub *memoSub) *memoEntry {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	e := mt.inflight[key]
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.doomed {
		e.mu.Unlock()
		return nil
	}
	e.subs++
	e.live++
	e.mu.Unlock()
	sub.hit = true
	mt.hits++
	mt.subs[sub.req.ReqID] = &memoSubRef{entry: e, sub: sub}
	return e
}

// begin registers a fresh producer entry for a missed key.
func (mt *memoTable) begin(key string, prodID uint64, clock vclock.Clock) *memoEntry {
	e := &memoEntry{key: key, prodID: prodID, clock: clock}
	mt.mu.Lock()
	mt.inflight[key] = e
	mt.misses++
	mt.mu.Unlock()
	return e
}

// registerSub indexes a subscriber on an entry created outside attach (the
// first subscriber of a producer, or a cached replay).
func (mt *memoTable) registerSub(e *memoEntry, sub *memoSub, hit bool) {
	sub.hit = hit
	e.mu.Lock()
	e.subs++
	e.live++
	e.mu.Unlock()
	mt.mu.Lock()
	mt.subs[sub.req.ReqID] = &memoSubRef{entry: e, sub: sub}
	mt.mu.Unlock()
}

// runMemoRelay is the producer's client stand-in: it receives the extraction
// stream, acks every partial's flow credit immediately (the producer is never
// paced by any subscriber) and appends the packets to the entry log. It exits
// on the stream's final packet, and its endpoint leaves the fabric.
func (s *Scheduler) runMemoRelay(e *memoEntry, ep *comm.Endpoint) {
	for {
		m, ok := ep.Recv()
		if !ok {
			break
		}
		if m.Kind == "partial" {
			s.rt.flow.Ack(e.prodID, m.Rank.Or(0))
		}
		e.append(m)
		if m.Final {
			break
		}
	}
	ep.Leave()
	s.memoProducerDone(e)
}

// memoProducerDone retires a finished producer: the raw relay log is
// canonicalized (stale-attempt and duplicate packets dropped, so a replay is
// byte-identical to what the original requester assembled) and stored as a
// derived DMS entity — unless the run failed, was abandoned mid-flight, or
// the budget refuses the bytes.
// Holding mt.mu across the removal and the store moves the key from in-flight
// to cached atomically: a lookup finds it in one or the other.
func (s *Scheduler) memoProducerDone(e *memoEntry) {
	mt := s.memo
	mt.mu.Lock()
	if mt.inflight[e.key] == e {
		delete(mt.inflight, e.key)
	}
	e.mu.Lock()
	store := e.complete && !e.failed && !e.doomed
	subs := e.subs
	log := e.log
	e.mu.Unlock()
	stored, bytes := false, int64(0)
	if store {
		clean, size := canonicalMemoLog(log)
		if mt.storeLocked(&memoEntity{key: e.key, log: clean, size: size}) {
			stored, bytes = true, size
		}
	}
	mt.mu.Unlock()
	if stored {
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "memo",
			"req %d: stored result %s (%d bytes, %d subscribers)", e.prodID, e.key, bytes, subs)
	} else {
		s.rt.Trace.Eventf(s.rt.Clock.Now(), "memo",
			"req %d: result %s not cached", e.prodID, e.key)
	}
	s.noteMemoSubscribers(e.prodID, subs)
}

// canonicalMemoLog reduces a raw relay log to the canonical replay stream:
// exactly the packets a client's StreamAssembler would admit (final attempt
// only, first arrival of each packet), in arrival order, with the wire size
// summed for byte-exact budget accounting.
func canonicalMemoLog(log []comm.Message) ([]comm.Message, int64) {
	asm := NewStreamAssembler()
	out := make([]comm.Message, 0, len(log))
	var size int64
	attempt := 0
	for _, m := range log {
		if _, ok := asm.admit(m); !ok {
			continue
		}
		if asm.Attempt != attempt {
			attempt = asm.Attempt
			out, size = out[:0], 0
		}
		out = append(out, m)
		size += m.WireSize()
	}
	return out, size
}

// runMemoForwarder delivers one subscriber's stream: it walks the entry log
// from the start, parking on the entry gate while the producer is still
// ahead, and sends each packet under the subscriber's own request ID —
// partials paced by the subscriber's own credit window, so one slow viewer
// stalls neither the producer nor its co-subscribers. A cancelled or
// slow-consumer subscriber is cut off with a synthesized error final; the
// shared extraction keeps running for everyone else.
func (s *Scheduler) runMemoForwarder(e *memoEntry, sub *memoSub) {
	rt := s.rt
	id := sub.req.ReqID
	ep := s.memo.fwd
	cancelled := func() bool { return rt.isCancelled(id) }
	streams := 0
	pos := 0
	sentFinal, failed := false, false
	for {
		if cancelled() {
			failed = true
			break
		}
		m, ok, wait := e.at(pos)
		if wait != nil {
			wait.Wait()
			continue
		}
		if !ok {
			break
		}
		pos++
		out := m
		out.ReqID = id
		if m.Kind == "partial" {
			if err := rt.flow.Acquire(id, m.Rank.Or(0), sub.req.StreamWindow,
				rt.cfg.Overload.SlowConsumerAfter, cancelled); err != nil {
				rt.markCancelled(id)
				rt.Trace.Eventf(rt.Clock.Now(), "memo",
					"req %d: subscriber cut off: %v", id, err)
				failed = true
				break
			}
			streams++
		}
		if err := ep.Send(sub.req.Client, out); err != nil {
			// The client or its bridge is gone; nothing left to deliver to.
			failed = true
			break
		}
		if m.Final {
			sentFinal = true
			break
		}
	}
	if failed && !sentFinal {
		// Best-effort synthesized final so an in-process Collect returns. The
		// huge attempt stamp keeps it from being dropped as stale.
		ep.Send(sub.req.Client, sub.req.failed(1<<30, "core: cancelled: memo subscriber cut off"))
	}
	s.memoSubDone(e, sub, streams, failed)
}

// memoSubDone retires one subscriber: a synthetic finished-request record is
// written under the subscriber's request ID (the producer's record, under its
// own internal ID, keeps the real extraction probes), the session quota slot
// returns, and — when the last live subscriber abandons an unfinished
// extraction — the producer itself is cancelled.
func (s *Scheduler) memoSubDone(e *memoEntry, sub *memoSub, streams int, failed bool) {
	now := s.rt.Clock.Now()
	st := RequestStats{
		ReqID:       sub.req.ReqID,
		Command:     sub.req.Command,
		Received:    sub.at,
		Started:     sub.at,
		End:         now,
		Streams:     streams,
		MemoHit:     sub.hit,
		Subscribers: e.subCount(),
	}
	if failed {
		st.Errors = 1
	}
	s.mu.Lock()
	s.recordFinishedLocked(st)
	s.releaseSessionLocked(sub.req.Session)
	if d := now - sub.at; d >= 0 {
		s.svcSum += d
		s.svcCount++
	}
	s.mu.Unlock()
	s.rt.clearCancelled(sub.req.ReqID)
	s.rt.flow.drop(sub.req.ReqID)
	s.memo.subGone(e, sub)
}

// subGone drops the live-subscriber index entry and abandons the producer if
// nobody is left to receive an unfinished extraction.
func (mt *memoTable) subGone(e *memoEntry, sub *memoSub) {
	mt.mu.Lock()
	delete(mt.subs, sub.req.ReqID)
	e.mu.Lock()
	e.live--
	abandoned := e.live == 0 && !e.complete && !e.doomed
	if abandoned {
		e.doomed = true
	}
	e.mu.Unlock()
	if abandoned && mt.inflight[e.key] == e {
		delete(mt.inflight, e.key)
	}
	mt.mu.Unlock()
	if abandoned {
		mt.rt.Trace.Eventf(mt.rt.Clock.Now(), "memo",
			"req %d: all subscribers gone, cancelling producer", e.prodID)
		mt.rt.markCancelled(e.prodID)
	}
}

// cancelSub handles a client "cancel" for a request being served by the memo
// path: the subscriber flag is set and its forwarder woken wherever it is
// parked (entry gate or credit window). Reports whether the ID was a live
// subscriber.
func (mt *memoTable) cancelSub(subID uint64) bool {
	mt.mu.Lock()
	ref := mt.subs[subID]
	mt.mu.Unlock()
	if ref == nil {
		return false
	}
	mt.rt.markCancelled(subID)
	ref.entry.wakeAll()
	return true
}

// dropSubsOf cancels every live subscriber of a disconnected session.
func (mt *memoTable) dropSubsOf(sess string) int {
	mt.mu.Lock()
	var ids []uint64
	var entries []*memoEntry
	for id, ref := range mt.subs {
		if ref.sub.req.Session == sess {
			ids = append(ids, id)
			entries = append(entries, ref.entry)
		}
	}
	mt.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		mt.rt.markCancelled(id)
		entries[i].wakeAll()
	}
	return len(ids)
}

// liveSubs reports subscribers whose streams are still being delivered; they
// count as in-flight work for graceful drain.
func (mt *memoTable) liveSubs() int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return len(mt.subs)
}

func (mt *memoTable) stats() MemoStats {
	cs := mt.cache.Stats()
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return MemoStats{
		Hits:            mt.hits,
		Misses:          mt.misses,
		Evictions:       cs.Evictions,
		RejectedBudget:  cs.RejectedBudget,
		Entries:         mt.cache.Len(),
		BytesCached:     mt.cache.Used(),
		InFlight:        len(mt.inflight),
		LiveSubscribers: len(mt.subs),
	}
}

// noteMemoSubscribers stamps the final fan-out count on the producer's
// request record, wherever it currently lives.
func (s *Scheduler) noteMemoSubscribers(prodID uint64, subs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ar, ok := s.active[prodID]; ok {
		ar.stats.Subscribers = subs
		return
	}
	if st, ok := s.finished[prodID]; ok {
		st.Subscribers = subs
		s.finished[prodID] = st
	}
}

// MemoStats reports the result-memoization counters.
func (s *Scheduler) MemoStats() MemoStats {
	return s.memo.stats()
}

// AllStats returns every retained finished-request record, ordered by
// request ID: client-facing subscriber records and internal producer records
// alike.
func (s *Scheduler) AllStats() []RequestStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RequestStats, 0, len(s.finished))
	for _, st := range s.finished {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ReqID < out[j].ReqID })
	return out
}

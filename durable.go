package viracocha

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/session"
	"viracocha/internal/vclock"
)

// defaultDrainTimeout bounds a graceful shutdown when Options.DrainTimeout
// is unset: in-flight requests get this long to finish before the shutdown
// proceeds anyway.
const defaultDrainTimeout = 10 * time.Second

// sessionBridge is the durable TCP↔fabric bridge: it owns the lease
// registry, routes fabric replies to connections, appends each durable
// request's outbound frames to its stream log for replay, and re-attaches
// reconnecting clients to their live sessions. One bridge serves every
// listener of a System.
//
// Stream-credit invariant: every partial frame a producer emits consumed one
// flow-control credit, and exactly one credit must return per frame — from
// the client's ack while attached, or from the bridge's self-ack while the
// client is away. Replayed frames were already credited at first delivery,
// so the client's acks for them are swallowed (the echoed sseq tells them
// apart from acks for fresh frames).
type sessionBridge struct {
	sys  *System
	reg  *session.Registry
	name string // fabric endpoint name ("tcp-bridge1")
	ep   *comm.Endpoint

	mu       sync.Mutex
	sessions map[string]*liveSession // session ID → state
	routes   map[uint64]*liveReq     // runtime reqID → request
	stop     chan struct{}           // non-nil while started; closed when dispatch ends
}

// liveSession is one client session: durable sessions survive their
// connection (bounded by the lease), ephemeral ones — pre-lease clients that
// never sent a hello — keep the old purge-on-disconnect contract.
type liveSession struct {
	id        string // lease ID, or the admission name for ephemeral sessions
	epoch     int
	admission string // scheduler admission-control session name
	durable   bool
	conn      *comm.Conn // nil while detached
	connGen   int        // bumped per attach; fences stale conn-death cleanup
	reqs      map[uint64]*liveReq
}

// liveReq is one request's bridge-side state, keyed by the client's own
// request ID so a resumed client's frames keep their original IDs.
type liveReq struct {
	sess      *liveSession
	clientReq uint64
	runtimeID uint64 // 0 after a recovery found the stream final: nothing live behind it
	// log holds the stream sequence stamped on outbound frames, the final
	// flag and — durable sessions only — the frames retained for replay. With
	// a WAL it is the very log the sink checkpoints and recovery rebuilds.
	log       *streamLog
	unacked   map[int]int // rank → frames sent on a live conn, not yet acked
	selfAcked int         // highest sseq the bridge credited on the client's behalf
}

func newSessionBridge(sys *System, reg *session.Registry) *sessionBridge {
	name := fmt.Sprintf("tcp-bridge%d", sys.Runtime.NextClientID())
	return &sessionBridge{
		sys:      sys,
		reg:      reg,
		name:     name,
		ep:       sys.Runtime.Net.Endpoint(name),
		sessions: map[string]*liveSession{},
		routes:   map[uint64]*liveReq{},
	}
}

// start spawns the dispatcher actor and the lease sweeper (idempotent).
func (b *sessionBridge) start() {
	b.mu.Lock()
	if b.stop != nil {
		b.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	b.stop = stop
	b.mu.Unlock()
	b.sys.Clock.Go(b.dispatch)
	// The sweeper is a plain goroutine on wall time: Serve guarantees a real
	// clock, and a ticker goroutine must not count as a virtual-clock actor.
	go b.sweep(stop)
}

// dispatch routes fabric messages to client connections until the runtime
// shuts the network down; the sweeper stops with it. A frame whose WAL record
// must be durable before it reaches the socket is held: the loop delivers
// every message already queued, commits the highest lsn once — with no bridge
// or sink lock held, so acks, admissions and other sessions never wait on the
// disk — and then sends the held frames in delivery order, which is sseq
// order within each request. A frame with nothing to wait for goes out at
// once while nothing is held.
func (b *sessionBridge) dispatch() {
	defer func() {
		b.mu.Lock()
		close(b.stop)
		b.stop = nil
		b.mu.Unlock()
	}()
	var held []outbound
	for {
		m, ok := b.ep.Recv()
		if !ok {
			return
		}
		var lsn uint64
		for ok {
			if o, send := b.deliver(m); send {
				if o.lsn == 0 && len(held) == 0 {
					b.send(o)
				} else {
					held = append(held, o)
					lsn = max(lsn, o.lsn)
				}
			}
			if len(held) == 0 {
				break
			}
			m, ok = b.ep.TryRecv()
		}
		if len(held) == 0 {
			continue
		}
		b.sys.wal.flush(lsn)
		for i := range held {
			b.send(held[i])
			held[i] = outbound{}
		}
		held = held[:0]
	}
}

// outbound is a delivered frame on its way to an attached session's socket.
type outbound struct {
	sess *liveSession
	conn *comm.Conn
	gen  int    // sess.connGen when the frame was delivered
	kind string // the message kind, for the trace
	wire comm.Frame
	lsn  uint64 // the frame's WAL record, to commit first; 0 when none
}

// deliver stamps and logs one fabric reply and reports the frame to send, if
// it goes to a socket. The frame is built once, around the worker's payload,
// never copying it: those parts are what a durable session's stream log
// retains, what the WAL writes and what the socket sends.
func (b *sessionBridge) deliver(m comm.Message) (outbound, bool) {
	rt := b.sys.Runtime
	inj := rt.FaultInjector()
	b.mu.Lock()
	lr := b.routes[m.ReqID]
	if lr == nil {
		b.mu.Unlock()
		return outbound{}, false // request already retired (done, purged, or never routed)
	}
	sess := lr.sess
	if m.Final {
		delete(b.routes, m.ReqID)
		if !sess.durable {
			// Nothing can resume an ephemeral session's request, and its
			// client never sends "done": the final frame retires it.
			delete(sess.reqs, lr.clientReq)
		}
	}
	out := m
	out.ReqID = lr.clientReq
	// Only the bridge, under its lock, advances a live log's head.
	sseq := lr.log.head() + 1
	wire := comm.StampFrame(out, "sseq", strconv.Itoa(sseq))
	f := newLogFrame(m, nil)
	f.sseq = sseq
	if sess.durable {
		f.wire, f.payload, f.sum = wire.Head, wire.Payload, wire.Sum
	}
	// Log before the WAL write: a checkpoint may then fold the frame in ahead
	// of its record, never prune the record of a frame it missed.
	lr.log.append(f)
	var lsn uint64
	if sess.durable {
		lsn = b.sys.wal.Frame(sess.id, lr.clientReq, wire)
	}
	isPartial := out.Kind == "partial"
	rank := out.IntParam("rank", 0)
	credit := func() {
		// The frame never reached (or will never reach) the client: return
		// its stream credit on the client's behalf so producers keep moving.
		if isPartial && lr.runtimeID != 0 {
			rt.AckStream(lr.runtimeID, rank)
		}
		lr.selfAcked = sseq
	}
	if sess.conn == nil {
		credit()
		b.mu.Unlock()
		return outbound{}, false
	}
	if inj.OnConnFrame(sess.id) {
		conn := sess.conn
		b.detachLocked(sess, "fault plan: discon rule fired")
		credit()
		b.mu.Unlock()
		conn.Close()
		return outbound{}, false
	}
	if inj.Hanged(sess.id) {
		// The planned wedged peer: simulate the write deadline expiring so
		// the path is testable without real kernel buffer pressure.
		conn := sess.conn
		rt.Trace.Eventf(rt.Clock.Now(), "bridge",
			"send %s to session %s failed: %v (fault plan: hang rule)", out.Kind, sess.id, comm.ErrWriteTimeout)
		b.detachLocked(sess, "fault plan: hang rule (simulated write timeout)")
		credit()
		b.mu.Unlock()
		conn.Close()
		return outbound{}, false
	}
	if isPartial && sess.durable {
		lr.unacked[rank]++
	}
	o := outbound{sess: sess, conn: sess.conn, gen: sess.connGen, kind: out.Kind, wire: wire, lsn: lsn}
	b.mu.Unlock()
	return o, true
}

// send writes one delivered frame to its socket, outside the bridge lock (a
// slow peer must not stall every other session); the connection-generation
// counter fences the cleanup if the connection died in between.
func (b *sessionBridge) send(o outbound) {
	err := o.conn.SendFrame(o.wire)
	if err == nil {
		return
	}
	rt := b.sys.Runtime
	rt.Trace.Eventf(rt.Clock.Now(), "bridge",
		"send %s to session %s failed: %v", o.kind, o.sess.id, err)
	b.mu.Lock()
	if o.sess.connGen == o.gen && o.sess.conn != nil {
		// detachLocked credits every sent-but-unacked frame, including the
		// one that just failed (its unacked increment happened in deliver).
		b.detachLocked(o.sess, "send failed: "+err.Error())
	}
	b.mu.Unlock()
	// Closing unblocks the reader goroutine, whose cleanup purges an
	// ephemeral session.
	o.conn.Close()
}

// detachLocked severs a session from its connection without purging it:
// sent-but-unacked frames are re-credited (their acks died with the link)
// and the lease clock restarts so the client gets a full TTL to return.
// Callers close the connection after releasing the lock.
func (b *sessionBridge) detachLocked(sess *liveSession, why string) {
	if sess.conn == nil {
		return
	}
	sess.conn = nil
	rt := b.sys.Runtime
	for _, lr := range sess.reqs {
		for rank, n := range lr.unacked {
			if lr.runtimeID != 0 {
				for i := 0; i < n; i++ {
					rt.AckStream(lr.runtimeID, rank)
				}
			}
			delete(lr.unacked, rank)
		}
		lr.selfAcked = lr.log.head()
	}
	if sess.durable {
		b.reg.Touch(sess.id)
		rt.Trace.Eventf(rt.Clock.Now(), "bridge",
			"session %s detached (%s): %d requests retained for resume", sess.id, why, len(sess.reqs))
	}
}

// purge drops a session for good through the existing disconnect path:
// queued requests discarded, running ones cancelled, quota released.
func (b *sessionBridge) purge(sess *liveSession) {
	b.mu.Lock()
	if b.sessions[sess.id] != sess {
		b.mu.Unlock()
		return // already purged (sweeper vs reader race)
	}
	delete(b.sessions, sess.id)
	for _, lr := range sess.reqs {
		if lr.runtimeID != 0 {
			delete(b.routes, lr.runtimeID)
		}
	}
	b.mu.Unlock()
	if sess.durable {
		b.sys.wal.LeaseDrop(sess.id)
	}
	b.reg.Drop(sess.id)
	b.ep.Send("scheduler", comm.Message{
		Kind:   "disconnect",
		Params: map[string]string{"session": sess.admission},
	})
}

// sweep purges durable sessions whose lease expired while detached and keeps
// attached ones renewed, until stop closes (not a tick later: it holds the system).
func (b *sessionBridge) sweep(stop <-chan struct{}) {
	every := b.reg.TTL() / 4
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		b.mu.Lock()
		var attached []string
		for id, sess := range b.sessions {
			if sess.durable && sess.conn != nil {
				attached = append(attached, id)
			}
		}
		b.mu.Unlock()
		for _, id := range attached {
			b.reg.Touch(id)
		}
		for _, id := range b.reg.Expired() {
			b.mu.Lock()
			sess := b.sessions[id]
			detached := sess != nil && sess.conn == nil
			b.mu.Unlock()
			switch {
			case sess == nil:
				b.reg.Drop(id)
			case detached:
				rt := b.sys.Runtime
				rt.Trace.Eventf(rt.Clock.Now(), "bridge",
					"session %s lease expired while detached: purging", id)
				b.purge(sess)
			}
		}
	}
}

// serveConn owns one accepted connection: handshake (or legacy first
// frame), then the read loop until the peer goes away.
func (b *sessionBridge) serveConn(conn *comm.Conn) {
	conn.SetWriteTimeout(b.reg.TTL())
	first, ok := conn.Recv()
	if !ok {
		conn.Close()
		return
	}
	var sess *liveSession
	var gen int
	if first.Kind == "hello" {
		sess, gen = b.attach(conn, first)
		if sess == nil {
			conn.Close()
			return
		}
	} else {
		// Pre-lease client: one ephemeral session per connection, purged the
		// moment the connection dies — the original Serve contract.
		admission := fmt.Sprintf("%s/s%d", b.name, b.sys.Runtime.NextClientID())
		sess = &liveSession{
			id:        admission,
			admission: admission,
			conn:      conn,
			connGen:   1,
			reqs:      map[uint64]*liveReq{},
		}
		gen = 1
		b.mu.Lock()
		b.sessions[sess.id] = sess
		b.mu.Unlock()
		if !b.handleFrame(sess, conn, first) {
			b.connClosed(sess, gen, conn)
			return
		}
	}
	for {
		m, ok := conn.Recv()
		if !ok {
			b.connClosed(sess, gen, conn)
			return
		}
		if sess.durable {
			b.reg.Touch(sess.id)
		}
		if !b.handleFrame(sess, conn, m) {
			b.connClosed(sess, gen, conn)
			return
		}
	}
}

// connClosed is the reader goroutine's cleanup: detach durable sessions,
// purge ephemeral ones. The generation fences it against a newer attachment
// already using a fresh connection.
func (b *sessionBridge) connClosed(sess *liveSession, gen int, conn *comm.Conn) {
	conn.Close()
	b.mu.Lock()
	stale := sess.connGen != gen
	if !stale {
		b.detachLocked(sess, "connection closed")
	}
	durable := sess.durable
	b.mu.Unlock()
	if !stale && !durable {
		b.purge(sess)
	}
}

// attach services a hello handshake: issue a fresh lease, or validate a
// resume (epoch-fenced), reply with the lease frame, and replay retained
// frames past the client's acknowledged watermarks. Returns nil when the
// handshake was denied (the denial frame has been sent).
func (b *sessionBridge) attach(conn *comm.Conn, hello comm.Message) (*liveSession, int) {
	rt := b.sys.Runtime
	deny := func(err error) {
		conn.Send(comm.Message{Kind: "lease", Params: map[string]string{
			"denied": "1", "error": err.Error(),
		}})
	}
	id := hello.Params["session"]
	var sess *liveSession
	var lease session.Lease
	resumed := false
	if id == "" {
		lease = b.reg.Issue()
		sess = &liveSession{
			id:        lease.ID,
			epoch:     lease.Epoch,
			admission: fmt.Sprintf("%s/s%d", b.name, rt.NextClientID()),
			durable:   true,
			reqs:      map[uint64]*liveReq{},
		}
		b.mu.Lock()
		b.sessions[sess.id] = sess
		b.mu.Unlock()
		b.sys.wal.LeaseIssue(lease.ID, lease.Epoch, sess.admission)
	} else {
		var err error
		lease, err = b.reg.Resume(id, hello.IntParam("epoch", 0))
		if err != nil {
			deny(err)
			return nil, 0
		}
		b.mu.Lock()
		sess = b.sessions[id]
		if sess == nil {
			// Lease known but state gone (purged between sweep and resume):
			// treat like an unknown session.
			b.mu.Unlock()
			b.reg.Drop(id)
			deny(fmt.Errorf("%w: %q (state purged)", session.ErrUnknownSession, id))
			return nil, 0
		}
		if old := sess.conn; old != nil {
			// A zombie connection still attached: the resume's bumped epoch
			// has fenced it; hand the session to the newcomer.
			b.detachLocked(sess, "superseded by resumed connection")
			old.Close()
		}
		sess.epoch = lease.Epoch
		b.mu.Unlock()
		b.sys.wal.LeaseResume(id, lease.Epoch)
		resumed = true
	}
	reply := comm.Message{Kind: "lease", Params: map[string]string{
		"session":   sess.id,
		"epoch":     strconv.Itoa(sess.epoch),
		"expiry_ms": strconv.FormatInt(b.reg.TTL().Milliseconds(), 10),
	}}
	if resumed {
		reply.Params["resumed"] = "1"
	}
	if err := conn.Send(reply); err != nil {
		return nil, 0
	}
	// Replay past the client's watermarks, then attach. The session stays
	// detached while replaying, so concurrent deliveries self-ack and land
	// in the stream log; the loop re-checks for frames that arrived
	// mid-replay before finally wiring the connection in — this keeps each
	// request's frames strictly ordered on the wire.
	marks := map[uint64]int{}
	for k, v := range hello.Params {
		if id, ok := strings.CutPrefix(k, "mark."); ok {
			cr, err1 := strconv.ParseUint(id, 10, 64)
			mk, err2 := strconv.Atoi(v)
			if err1 == nil && err2 == nil {
				marks[cr] = mk
			}
		}
	}
	replayed := 0
	for {
		var pending []comm.Frame
		b.mu.Lock()
		ids := make([]uint64, 0, len(sess.reqs))
		for cr := range sess.reqs {
			ids = append(ids, cr)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, cr := range ids {
			lr := sess.reqs[cr]
			pending = append(pending, lr.log.after(marks[cr])...)
			marks[cr] = lr.log.head()
		}
		if len(pending) == 0 {
			sess.conn = conn
			sess.connGen++
			gen := sess.connGen
			b.mu.Unlock()
			if resumed {
				rt.Trace.Eventf(rt.Clock.Now(), "bridge",
					"session %s resumed at epoch %d: %d frames replayed", sess.id, sess.epoch, replayed)
			}
			return sess, gen
		}
		b.mu.Unlock()
		b.sys.wal.flushAll()
		for _, f := range pending {
			if err := conn.SendFrame(f); err != nil {
				return nil, 0 // peer died mid-replay; session stays detached
			}
			replayed++
		}
	}
}

// routed is a client command as the scheduler sees it: under its runtime
// request ID, addressed back to this bridge and the session's admission name.
func (b *sessionBridge) routed(cmd comm.Message, rid uint64, admission string) comm.Message {
	fwd := cmd
	fwd.ReqID = rid
	fwd.Params = make(map[string]string, len(cmd.Params)+2)
	for k, v := range cmd.Params {
		fwd.Params[k] = v
	}
	fwd.Params["client"] = b.name
	fwd.Params["session"] = admission
	return fwd
}

// handleFrame services one client frame; false means the connection should
// be torn down (the client said goodbye).
func (b *sessionBridge) handleFrame(sess *liveSession, conn *comm.Conn, m comm.Message) bool {
	rt := b.sys.Runtime
	switch m.Kind {
	case "command":
		b.mu.Lock()
		if _, dup := sess.reqs[m.ReqID]; dup {
			// A resumed client re-sends its in-flight command in case the
			// original never arrived; it did, so this one is a no-op (the
			// attach replay already covered delivered frames).
			b.mu.Unlock()
			return true
		}
		rid := rt.NextReqID()
		lr := &liveReq{
			sess:      sess,
			clientReq: m.ReqID,
			runtimeID: rid,
			log:       &streamLog{},
			unacked:   map[int]int{},
		}
		sess.reqs[m.ReqID] = lr
		b.routes[rid] = lr
		var lsn uint64
		if sess.durable {
			lsn = b.sys.wal.Admit(sess.id, m.ReqID, rid, m, lr.log)
		}
		b.mu.Unlock()
		b.sys.wal.commit(lsn)
		// The TCP reader is not a clock actor, but under the real clock Send
		// only costs a (tiny) real sleep.
		if err := b.ep.Send("scheduler", b.routed(m, rid, sess.admission)); err != nil {
			// Route the failure through deliver so it is stamped, logged
			// and replayable like any other terminal frame.
			o, send := b.deliver(comm.Message{
				Kind: "error", ReqID: rid, Final: true,
				Params: map[string]string{"error": err.Error(), "attempt": "0"},
			})
			if send {
				b.sys.wal.flush(o.lsn)
				b.send(o)
			}
		}
	case "ack":
		b.mu.Lock()
		lr := sess.reqs[m.ReqID]
		if lr == nil {
			b.mu.Unlock()
			return true
		}
		sseq := m.IntParam("sseq", -1)
		rank := m.IntParam("rank", 0)
		forward := true
		if sseq >= 0 {
			if sseq <= lr.selfAcked {
				// The bridge already credited this frame while the client was
				// away (or it was replayed): a second credit would inflate
				// the producer's window.
				forward = false
			} else if lr.unacked[rank] > 0 {
				lr.unacked[rank]--
			}
			lr.log.trim(sseq)
		}
		rid := lr.runtimeID
		b.mu.Unlock()
		if forward && rid != 0 {
			rt.AckStream(rid, rank)
		}
	case "done":
		// The client has fully consumed this request's stream: retire its
		// log.
		b.mu.Lock()
		if lr := sess.reqs[m.ReqID]; lr != nil && lr.log.final() {
			delete(sess.reqs, m.ReqID)
			if lr.runtimeID != 0 {
				delete(b.routes, lr.runtimeID)
			}
			if sess.durable {
				b.sys.wal.Retire(sess.id, m.ReqID)
			}
		}
		b.mu.Unlock()
	case "cancel":
		b.mu.Lock()
		lr := sess.reqs[m.ReqID]
		b.mu.Unlock()
		if lr != nil && lr.runtimeID != 0 {
			b.ep.Send("scheduler", comm.Message{Kind: "cancel", ReqID: lr.runtimeID})
		}
	case "bye":
		// Prompt teardown of a durable session: the client is done for good
		// and releases its lease instead of letting it expire.
		b.purge(sess)
		return false
	case "drain":
		// Admin trigger for graceful shutdown; acknowledged once the drain
		// deadline resolves (in-flight finished or timed out).
		go func() {
			err := b.sys.Drain(b.sys.opts.DrainTimeout)
			reply := comm.Message{Kind: "drained", Params: map[string]string{}}
			if err != nil {
				reply.Params["error"] = err.Error()
			}
			conn.Send(reply)
		}()
	case "roll":
		// Admin trigger for a rolling worker restart; acknowledged once the
		// whole pool has been cycled (or a node missed its drain/rejoin
		// deadline).
		go func() {
			err := b.sys.Roll(b.sys.opts.DrainTimeout)
			reply := comm.Message{Kind: "rolled", Params: map[string]string{}}
			if err != nil {
				reply.Params["error"] = err.Error()
			}
			conn.Send(reply)
		}()
	}
	return true
}

// bridge lazily builds the System's singleton session bridge (shared by
// every listener, and by RecoverWAL before the first Serve).
func (s *System) bridge() *sessionBridge {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	if s.br == nil {
		s.br = newSessionBridge(s, session.NewRegistry(s.Clock, s.opts.SessionLease))
	}
	return s.br
}

// Drain puts the system into drain mode: the scheduler bounces new requests
// with ErrDraining (and a retry-after hint), in-flight requests keep running,
// and Drain blocks until they finish or timeout elapses (0 means the
// Options.DrainTimeout default). Wire it to SIGTERM for graceful shutdown;
// remote admins can trigger it through RemoteClient.Drain. A non-nil error
// means the deadline passed with work still in flight — CloseWAL is still
// safe to call: a restart on the same WAL directory re-admits the unfinished
// requests and their clients resume mid-stream.
func (s *System) Drain(timeout time.Duration) error {
	if _, ok := s.Clock.(*vclock.Real); !ok {
		return fmt.Errorf("viracocha: Drain requires a real-clock system")
	}
	if !s.started {
		s.Start()
	}
	s.Runtime.DrainScheduler()
	if timeout <= 0 {
		timeout = s.opts.DrainTimeout
	}
	if timeout <= 0 {
		timeout = defaultDrainTimeout
	}
	deadline := time.Now().Add(timeout)
	for {
		n := s.Runtime.Sched.InFlight()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("viracocha: drain deadline (%v) passed with %d requests still in flight", timeout, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Roll restarts the worker pool one node at a time — cordon, drain, kill,
// reboot, rejoin — with every in-flight and subsequent request completing
// normally (a rolling restart for in-place upgrades and leak hygiene). It
// blocks until the whole pool has been cycled
// or a node misses its per-node timeout (0 means the Options.DrainTimeout
// default). Remote admins can trigger it through RemoteClient.Roll.
func (s *System) Roll(timeout time.Duration) error {
	if _, ok := s.Clock.(*vclock.Real); !ok {
		return fmt.Errorf("viracocha: Roll requires a real-clock system (virtual-time tests call Runtime.Roll from an actor)")
	}
	if !s.started {
		s.Start()
	}
	if timeout <= 0 {
		timeout = s.opts.DrainTimeout
	}
	if timeout <= 0 {
		timeout = defaultDrainTimeout
	}
	return s.Runtime.Roll(timeout)
}

// DisconnectClients severs every client connection: durable sessions detach
// (still resumable within their lease — typically against the restarted
// process), ephemeral ones are purged. Part of a graceful shutdown, after
// Drain and CloseWAL.
func (s *System) DisconnectClients() {
	b := s.bridge()
	b.mu.Lock()
	var conns []*comm.Conn
	for _, sess := range b.sessions {
		if sess.conn != nil {
			conns = append(conns, sess.conn)
			b.detachLocked(sess, "server shutting down")
		}
	}
	b.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// SessionCount reports the number of live durable sessions (attached or
// awaiting resume within their lease).
func (s *System) SessionCount() int {
	b := s.bridge()
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, sess := range b.sessions {
		if sess.durable {
			n++
		}
	}
	return n
}

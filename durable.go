package viracocha

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/vclock"
)

// defaultDrainTimeout bounds a graceful shutdown when Options.DrainTimeout
// is unset: in-flight requests get this long to finish before the shutdown
// proceeds anyway.
const defaultDrainTimeout = 10 * time.Second

// defaultSessionLease is how long a detached durable session awaits a resume
// when Options.SessionLease is unset: long enough to ride out a WAN reconnect
// storm, short enough that an abandoned session releases its quota within
// one operator sigh.
const defaultSessionLease = 30 * time.Second

// sessionBridge is the durable TCP↔fabric bridge: it issues and fences the
// durable sessions' leases, routes fabric replies to connections, appends
// each durable request's outbound frames to its stream log for replay, and
// re-attaches reconnecting clients to their live sessions. One bridge serves
// every listener of a System.
//
// Stream-credit invariant: every partial frame a producer emits consumed one
// flow-control credit, and exactly one credit must return per frame — from
// the client's ack while attached, or from the bridge's self-ack while the
// client is away. Replayed frames were already credited at first delivery,
// so the client's acks for them are swallowed (the echoed sseq tells them
// apart from acks for fresh frames).
type sessionBridge struct {
	sys  *System
	ttl  time.Duration // the lease a durable session holds while detached
	name string        // fabric endpoint name ("tcp-bridge1")
	ep   *comm.Endpoint

	mu       sync.Mutex
	counter  uint64                  // N of the last issued "sess-N"
	sessions map[string]*liveSession // session ID → state
	routes   map[uint64]*liveReq     // runtime reqID → request
	stop     chan struct{}           // non-nil while started; closed when dispatch ends
}

// liveSession is one client session: durable sessions survive their
// connection (bounded by the lease), ephemeral ones — pre-lease clients that
// never sent a hello — keep the old purge-on-disconnect contract.
type liveSession struct {
	id        string // lease ID, or the admission name for ephemeral sessions
	epoch     int    // fences resumes: each one bumps it
	admission string // scheduler admission-control session name
	durable   bool
	conn      *comm.Conn    // nil while detached
	expiry    time.Duration // clock time the lease lapses at; only a detached session holds one
	connGen   int           // bumped per attach; fences stale conn-death cleanup
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

// lapsed reports whether a durable session's lease ran out at now.
func (s *liveSession) lapsed(now time.Duration) bool {
	return s.durable && s.conn == nil && now > s.expiry
}

func newSessionBridge(sys *System) *sessionBridge {
	name := fmt.Sprintf("tcp-bridge%d", sys.Runtime.NextClientID())
	ttl := sys.opts.SessionLease
	if ttl <= 0 {
		ttl = defaultSessionLease
	}
	return &sessionBridge{
		sys:      sys,
		ttl:      ttl,
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
// shuts the network down; the sweeper stops with it. A delivered frame goes
// to its socket at once: a durable frame's WAL record is only staged (the
// log's writer goroutine writes and syncs it later, with no bridge or sink
// lock held), because a frame a crash loses is recomputed byte for byte. The
// one exception is a durable request's final frame under fsync always: the
// lsn walSink.Frame returns for it, which commit Syncs before the send, with
// no lock held (walSink.Frame says why).
func (b *sessionBridge) dispatch() {
	defer func() {
		b.mu.Lock()
		close(b.stop)
		b.stop = nil
		b.mu.Unlock()
	}()
	for {
		m, ok := b.ep.Recv()
		if !ok {
			return
		}
		if o, send := b.deliver(m); send {
			b.sys.wal.commit(o.lsn)
			b.send(o)
		}
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
	out.SSeq = comm.Some(sseq)
	wire := comm.NewFrame(out)
	f := newLogFrame(out, nil)
	if sess.durable {
		f.wire, f.payload, f.sum = wire.Head, wire.Payload, wire.Sum
	}
	// Log before the WAL record is staged: a checkpoint may then fold the
	// frame in ahead of its record, never prune the record of a frame it
	// missed.
	lr.log.append(f)
	var lsn uint64
	if sess.durable {
		lsn = b.sys.wal.Frame(sess.id, lr.clientReq, wire, out.Final)
	}
	isPartial := out.Kind == "partial"
	rank := out.Rank.Or(0)
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
		sess.expiry = b.sys.Clock.Now() + b.ttl
		rt.Trace.Eventf(rt.Clock.Now(), "bridge",
			"session %s detached (%s): %d requests retained for resume", sess.id, why, len(sess.reqs))
	}
}

// purge drops a session for good through the existing disconnect path:
// queued requests discarded, running ones cancelled, quota released.
func (b *sessionBridge) purge(sess *liveSession) {
	b.mu.Lock()
	dropped := b.dropLocked(sess)
	b.mu.Unlock()
	if dropped {
		b.release(sess)
	}
}

// dropLocked removes a session and its routes from the bridge; false means
// another path already purged it (sweeper vs reader vs resume).
func (b *sessionBridge) dropLocked(sess *liveSession) bool {
	if b.sessions[sess.id] != sess {
		return false
	}
	delete(b.sessions, sess.id)
	for _, lr := range sess.reqs {
		if lr.runtimeID != 0 {
			delete(b.routes, lr.runtimeID)
		}
	}
	return true
}

// release tells the WAL and the scheduler that a dropped session is gone.
func (b *sessionBridge) release(sess *liveSession) {
	if sess.durable {
		b.sys.wal.LeaseDrop(sess.id)
	}
	b.ep.Send("scheduler", comm.Message{
		Kind:   "disconnect",
		Params: map[string]string{"session": sess.admission},
	})
}

// sweep purges the durable sessions whose lease lapsed while detached, until
// stop closes (not a tick later: it holds the system).
func (b *sessionBridge) sweep(stop <-chan struct{}) {
	t := time.NewTicker(max(b.ttl/4, 5*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		b.mu.Lock()
		now := b.sys.Clock.Now()
		var lapsed []*liveSession
		for _, sess := range b.sessions {
			if sess.lapsed(now) {
				b.dropLocked(sess)
				lapsed = append(lapsed, sess)
			}
		}
		b.mu.Unlock()
		rt := b.sys.Runtime
		for _, sess := range lapsed {
			rt.Trace.Eventf(rt.Clock.Now(), "bridge",
				"session %s lease expired while detached: purging", sess.id)
			b.release(sess)
		}
	}
}

// serveConn owns one accepted connection: handshake (or legacy first
// frame), then the read loop until the peer goes away.
func (b *sessionBridge) serveConn(conn *comm.Conn) {
	conn.SetWriteTimeout(b.ttl)
	first, ok := recvKept(conn)
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
		m, ok := recvKept(conn)
		if !ok {
			b.connClosed(sess, gen, conn)
			return
		}
		if !b.handleFrame(sess, conn, m) {
			b.connClosed(sess, gen, conn)
			return
		}
	}
}

// recvKept is conn.Recv for a frame the bridge keeps past the next read: a
// payload, which aliases the connection's frame buffer, is cloned. Acks,
// hellos and commands carry none.
func recvKept(conn *comm.Conn) (comm.Message, bool) {
	m, ok := conn.Recv()
	if len(m.Payload) > 0 {
		m.Payload = bytes.Clone(m.Payload)
	}
	return m, ok
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
	id := hello.Params["session"]
	resumed := id != ""
	var sess *liveSession
	var epoch int
	if !resumed {
		sess = b.issue()
		b.sys.wal.LeaseIssue(sess.id, 0, sess.admission)
	} else {
		var err error
		if sess, epoch, err = b.resume(id, hello.IntParam("epoch", 0)); err != nil {
			conn.Send(comm.Message{Kind: "lease", Params: map[string]string{
				"denied": "1", "error": err.Error(),
			}})
			return nil, 0
		}
		b.sys.wal.LeaseResume(id, epoch)
	}
	reply := comm.Message{Kind: "lease", Params: map[string]string{
		"session":   sess.id,
		"epoch":     strconv.Itoa(epoch),
		"expiry_ms": strconv.FormatInt(b.ttl.Milliseconds(), 10),
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
					"session %s resumed at epoch %d: %d frames replayed", sess.id, epoch, replayed)
			}
			return sess, gen
		}
		b.mu.Unlock()
		for _, f := range pending {
			if err := conn.SendFrame(f); err != nil {
				return nil, 0 // peer died mid-replay; session stays detached
			}
			replayed++
		}
	}
}

// issue opens a fresh durable session at epoch 0, detached until attach wires
// its connection in, so it holds a full lease meanwhile.
func (b *sessionBridge) issue() *liveSession {
	admission := fmt.Sprintf("%s/s%d", b.name, b.sys.Runtime.NextClientID())
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counter++
	sess := &liveSession{
		id:        fmt.Sprintf("sess-%d", b.counter),
		admission: admission,
		durable:   true,
		expiry:    b.sys.Clock.Now() + b.ttl,
		reqs:      map[uint64]*liveReq{},
	}
	b.sessions[sess.id] = sess
	return sess
}

// resume validates a resume handshake: the session must be a durable one the
// bridge holds, at the client's epoch, and not lapsed — a lapsed one is purged
// on the spot. Success bumps the epoch, which fences every connection holding
// the old one, hands the session over detached with a full lease for the
// replay, and returns the new epoch.
func (b *sessionBridge) resume(id string, epoch int) (*liveSession, int, error) {
	b.mu.Lock()
	sess := b.sessions[id]
	if sess == nil || !sess.durable {
		b.mu.Unlock()
		return nil, 0, fmt.Errorf("session: unknown or expired session: %q", id)
	}
	now := b.sys.Clock.Now()
	if sess.lapsed(now) {
		b.mu.Unlock()
		b.sys.Runtime.Trace.Eventf(now, "bridge", "session %s lease expired while detached: purging on resume", id)
		b.purge(sess)
		return nil, 0, fmt.Errorf("session: unknown or expired session: %q (lease expired)", id)
	}
	defer b.mu.Unlock()
	if epoch != sess.epoch {
		return nil, 0, fmt.Errorf("session: stale epoch: lease already resumed: %q epoch %d, current %d", id, epoch, sess.epoch)
	}
	if old := sess.conn; old != nil {
		// A zombie connection still attached: the bumped epoch fences it;
		// hand the session to the newcomer.
		b.detachLocked(sess, "superseded by resumed connection")
		old.Close()
	}
	sess.epoch++
	sess.expiry = now + b.ttl
	return sess, sess.epoch, nil
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
				Kind: "error", ReqID: rid, Final: true, Attempt: comm.Some(0),
				Params: map[string]string{"error": err.Error()},
			})
			if send {
				b.sys.wal.commit(o.lsn)
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
		sseq := m.SSeq.Or(-1)
		rank := m.Rank.Or(0)
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
		s.br = newSessionBridge(s)
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

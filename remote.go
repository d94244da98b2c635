package viracocha

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/core"
	"viracocha/internal/vclock"
)

// ErrResumeDenied marks a resume handshake the server rejected for good:
// the lease expired (the session was purged) or another connection resumed
// it first (stale epoch). The in-flight request cannot be recovered;
// resubmit on a fresh session.
var ErrResumeDenied = errors.New("viracocha: session resume denied")

// Serve exposes the system to visualization clients over TCP (the paper's
// client↔scheduler link). Each accepted connection can have several
// requests in flight; streamed partials and results are routed back to the
// originating connection through the durable session bridge, so clients
// that open with a hello handshake survive connection loss: their session
// (and its in-flight requests) lives on under a lease, and a reconnect
// resumes the stream exactly where it stopped. Clients that skip the
// handshake keep the original ephemeral contract (purge on disconnect).
// Serve blocks until the listener fails; the system must run under the real
// clock.
func (s *System) Serve(ln net.Listener) error {
	if _, ok := s.Clock.(*vclock.Real); !ok {
		return fmt.Errorf("viracocha: Serve requires a real-clock system")
	}
	if !s.started {
		s.Start()
	}
	b := s.bridge()
	b.start()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go b.serveConn(comm.NewConn(c))
	}
}

// RemoteClient is the TCP counterpart of Client, used by visualization
// front-ends (and cmd/viracocha-client) against a served System.
//
// With Resume set, the client opens a durable session (server-issued lease)
// and a broken connection is re-dialed with jittered capped exponential
// backoff; the resume handshake carries the acknowledged stream watermark,
// the server replays exactly the frames the client missed, and the request
// completes with a result byte-identical to an uninterrupted run.
//
// The same machinery rides out a server restart, not just a dropped link:
// when the server runs with a control-plane WAL (-wal), a gracefully bounced
// or hard-killed process restarts with the session, its admitted requests and their
// journal progress intact, re-dispatches only the unfinished blocks, and
// this client's ordinary reconnect loop lands on the new process none the
// wiser — the resume handshake and block-tagged deduplication below need no
// crash-specific handling.
//
// Without Resume, a broken connection is re-dialed (when MaxReconnects is
// set) but a request in flight at the time of the loss returns a clear
// error: its replies died with the connection.
type RemoteClient struct {
	addr string

	mu   sync.Mutex
	conn *comm.Conn
	seq  uint64

	sessionID string
	epoch     int

	// Resume opts into a durable session: the first request performs a
	// hello/lease handshake, and connection loss mid-request triggers an
	// automatic reconnect + exact stream resume instead of an error.
	Resume bool
	// MaxReconnects bounds re-dial attempts after a broken connection;
	// 0 disables reconnection (with Resume set, 0 means a default of 5).
	MaxReconnects int
	// ReconnectBackoff is the delay before the first re-dial attempt,
	// doubling per attempt up to ReconnectMaxBackoff. Defaults: 100ms / 5s.
	ReconnectBackoff    time.Duration
	ReconnectMaxBackoff time.Duration
	// OverloadRetries is how many times Run resubmits a command the server
	// rejected with ErrOverloaded or ErrDraining, honoring the server's
	// retry-after hint with jitter and doubling per attempt. 0 surfaces the
	// rejection to the caller immediately.
	OverloadRetries int
}

// Cancel aborts the in-flight request (safe to call from another goroutine,
// e.g. a partial-result callback that decided the extraction is useless).
// The blocked Run returns with the server's cancellation error.
func (rc *RemoteClient) Cancel() error {
	rc.mu.Lock()
	conn, id := rc.conn, rc.seq
	rc.mu.Unlock()
	return conn.Send(comm.Message{Kind: "cancel", ReqID: id})
}

// SessionID reports the server-issued durable session ID (empty before the
// first handshake, or when Resume is off).
func (rc *RemoteClient) SessionID() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.sessionID
}

// Epoch reports the session's current lease epoch (bumped by every resume).
func (rc *RemoteClient) Epoch() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.epoch
}

// Dial connects to a served system.
func Dial(addr string) (*RemoteClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &RemoteClient{addr: addr, conn: comm.NewConn(c)}, nil
}

// DialResume connects with retries and opens a durable session: the client
// reconnects and resumes in-flight streams exactly after a connection loss.
func DialResume(addr string, attempts int, backoff time.Duration) (*RemoteClient, error) {
	rc, err := DialRetry(addr, attempts, backoff)
	if err != nil {
		return nil, err
	}
	rc.Resume = true
	return rc, nil
}

// DialRetry connects to a served system, retrying a failed dial up to
// attempts times with capped exponential backoff (for clients started before
// or during a server restart). The returned client keeps the same retry
// budget for later reconnections.
func DialRetry(addr string, attempts int, backoff time.Duration) (*RemoteClient, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(retryDelay(backoff, 0, i-1, false))
		}
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return &RemoteClient{
				addr:             addr,
				conn:             comm.NewConn(c),
				MaxReconnects:    attempts,
				ReconnectBackoff: backoff,
			}, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("viracocha: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// Reconnect closes the current connection and re-dials with capped
// exponential backoff. In-flight requests are lost (the server routes their
// replies to the dead connection); subsequent requests use the new link.
// Resume-mode clients reconnect automatically instead.
func (rc *RemoteClient) Reconnect() error {
	if rc.MaxReconnects <= 0 {
		return fmt.Errorf("viracocha: reconnection disabled (MaxReconnects = 0)")
	}
	rc.closeConn()
	var lastErr error
	for i := 0; i < rc.MaxReconnects; i++ {
		c, err := net.Dial("tcp", rc.addr)
		if err == nil {
			rc.setConn(comm.NewConn(c))
			return nil
		}
		lastErr = err
		time.Sleep(retryDelay(rc.ReconnectBackoff, rc.ReconnectMaxBackoff, i, false))
	}
	return fmt.Errorf("viracocha: reconnect to %s failed after %d attempts: %w", rc.addr, rc.MaxReconnects, lastErr)
}

// Close shuts the connection down. A durable session says goodbye first, so
// the server releases its lease promptly instead of waiting for expiry.
func (rc *RemoteClient) Close() error {
	rc.mu.Lock()
	conn := rc.conn
	durable := rc.Resume && rc.sessionID != ""
	rc.mu.Unlock()
	if durable {
		conn.Send(comm.Message{Kind: "bye"}) // best-effort lease release
	}
	return conn.Close()
}

// Drain asks the served system to enter drain mode (the remote counterpart
// of System.Drain): new requests are bounced with ErrDraining while
// in-flight ones finish. Drain blocks until the server acknowledges — after
// its drain deadline resolved.
func (rc *RemoteClient) Drain() error {
	if err := rc.send(comm.Message{Kind: "drain"}); err != nil {
		return err
	}
	for {
		m, ok := rc.recv()
		if !ok {
			return fmt.Errorf("viracocha: connection lost awaiting drain acknowledgement")
		}
		if m.Kind == "drained" {
			if e := m.Params["error"]; e != "" {
				return fmt.Errorf("viracocha: drain: %s", e)
			}
			return nil
		}
	}
}

// Roll asks the served system to perform a rolling worker restart (the
// remote counterpart of System.Roll): each rank is cordoned, drained, killed
// and rebooted in turn while requests keep completing normally. Roll blocks
// until the server acknowledges that the whole pool has been cycled.
func (rc *RemoteClient) Roll() error {
	if err := rc.send(comm.Message{Kind: "roll"}); err != nil {
		return err
	}
	for {
		m, ok := rc.recv()
		if !ok {
			return fmt.Errorf("viracocha: connection lost awaiting roll acknowledgement")
		}
		if m.Kind == "rolled" {
			if e := m.Params["error"]; e != "" {
				return fmt.Errorf("viracocha: roll: %s", e)
			}
			return nil
		}
	}
}

func (rc *RemoteClient) send(m comm.Message) error {
	rc.mu.Lock()
	conn := rc.conn
	rc.mu.Unlock()
	return conn.Send(m)
}

func (rc *RemoteClient) recv() (comm.Message, bool) {
	rc.mu.Lock()
	conn := rc.conn
	rc.mu.Unlock()
	return conn.Recv()
}

func (rc *RemoteClient) closeConn() {
	rc.mu.Lock()
	conn := rc.conn
	rc.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (rc *RemoteClient) setConn(c *comm.Conn) {
	rc.mu.Lock()
	rc.conn = c
	rc.mu.Unlock()
}

// ensureSession performs the initial hello/lease handshake for a Resume
// client (idempotent).
func (rc *RemoteClient) ensureSession() error {
	rc.mu.Lock()
	have := rc.sessionID != ""
	rc.mu.Unlock()
	if have {
		return nil
	}
	return rc.handshake(nil)
}

// handshake sends a hello on the current connection and absorbs the lease
// reply. marks carries the per-request acknowledged stream watermarks for an
// exact resume.
func (rc *RemoteClient) handshake(marks map[uint64]int) error {
	hello := comm.Message{Kind: "hello", Params: map[string]string{}}
	rc.mu.Lock()
	if rc.sessionID != "" {
		hello.Params["session"] = rc.sessionID
		hello.Params["epoch"] = strconv.Itoa(rc.epoch)
	}
	rc.mu.Unlock()
	for id, mk := range marks {
		hello.Params["mark."+strconv.FormatUint(id, 10)] = strconv.Itoa(mk)
	}
	if err := rc.send(hello); err != nil {
		return err
	}
	m, ok := rc.recv()
	if !ok {
		return fmt.Errorf("viracocha: connection lost during session handshake")
	}
	if m.Kind != "lease" {
		return fmt.Errorf("viracocha: unexpected %q frame during session handshake", m.Kind)
	}
	if m.Params["denied"] == "1" {
		return fmt.Errorf("%w: %s", ErrResumeDenied, m.Params["error"])
	}
	rc.mu.Lock()
	rc.sessionID = m.Params["session"]
	rc.epoch = m.IntParam("epoch", 0)
	rc.mu.Unlock()
	return nil
}

// reconnectResume re-dials with jittered capped exponential backoff and
// re-attaches to the durable session, handing the server reqID's
// acknowledged watermark so the stream resumes exactly past it. A denial
// (expired lease, stale epoch) aborts immediately: retrying cannot help.
func (rc *RemoteClient) reconnectResume(reqID uint64, mark int) error {
	attempts := rc.MaxReconnects
	if attempts <= 0 {
		attempts = 5
	}
	rc.closeConn()
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(retryDelay(rc.ReconnectBackoff, rc.ReconnectMaxBackoff, i-1, true))
		}
		c, err := net.Dial("tcp", rc.addr)
		if err != nil {
			lastErr = err
			continue
		}
		rc.setConn(comm.NewConn(c))
		var marks map[uint64]int
		if reqID != 0 {
			marks = map[uint64]int{reqID: mark}
		}
		err = rc.handshake(marks)
		if err == nil {
			return nil
		}
		rc.closeConn()
		if errors.Is(err, ErrResumeDenied) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("viracocha: reconnect to %s failed after %d attempts: %w", rc.addr, attempts, lastErr)
}

// Run executes a command remotely. onPartial, when non-nil, is invoked for
// every streamed partial as it arrives, before the final merged result is
// returned — the hook a renderer uses to display data early. Packets
// re-streamed by a server-side failover are deduplicated, so the merged
// result matches a fault-free run.
//
// A server-side admission rejection (ErrOverloaded) or drain bounce
// (ErrDraining) is retried up to OverloadRetries times, sleeping the
// server's retry-after hint (doubled per attempt, with jitter) between
// submissions — a client that keeps retrying across a graceful restart
// lands on the revived server.
func (rc *RemoteClient) Run(command string, params map[string]string, onPartial func(seq int, m *Mesh)) (*Mesh, error) {
	for try := 0; ; try++ {
		m, err := rc.runOnce(command, params, onPartial)
		if err != nil && try < rc.OverloadRetries {
			var oe *core.OverloadedError
			var de *core.DrainingError
			switch {
			case errors.As(err, &oe):
				time.Sleep(retryDelay(oe.RetryAfter, 0, try, true))
				continue
			case errors.As(err, &de):
				time.Sleep(retryDelay(de.RetryAfter, 0, try, true))
				continue
			}
		}
		return m, err
	}
}

// retryDelay is the client's one backoff rule, shared by dialing,
// reconnecting, resuming and overload resubmission: the sleep before retry
// attempt+1 is base (100ms when unset) doubled per attempt and capped at limit
// (5s when unset), plus, when jittered, up to 50% more so a burst of clients
// does not retry in lockstep.
func retryDelay(base, limit time.Duration, attempt int, jittered bool) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if limit <= 0 {
		limit = 5 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	if jittered {
		d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	}
	return d
}

func (rc *RemoteClient) runOnce(command string, params map[string]string, onPartial func(seq int, m *Mesh)) (*Mesh, error) {
	rc.mu.Lock()
	rc.seq++
	reqID := rc.seq
	rc.mu.Unlock()
	if rc.Resume {
		if err := rc.ensureSession(); err != nil {
			return nil, err
		}
	}
	req := comm.Message{Kind: "command", Command: command, ReqID: reqID, Params: params}
	if err := rc.send(req); err != nil {
		// The command never reached the server: reconnecting and resending
		// is safe.
		if rc.Resume {
			if rerr := rc.reconnectResume(reqID, 0); rerr != nil {
				return nil, fmt.Errorf("viracocha: send failed (%v); %w", err, rerr)
			}
		} else {
			if rerr := rc.Reconnect(); rerr != nil {
				return nil, fmt.Errorf("viracocha: send failed (%v); %w", err, rerr)
			}
		}
		if err := rc.send(req); err != nil {
			return nil, err
		}
	}
	asm := core.NewStreamAssembler()
	mark := 0 // highest stream sequence received; the resume watermark
	// sendDone tells the server the stream was fully consumed, so it can
	// retire the request's replay buffer (durable sessions; best-effort).
	sendDone := func() {
		if rc.Resume {
			rc.send(comm.Message{Kind: "done", ReqID: reqID})
		}
	}
	for {
		m, ok := rc.recv()
		if !ok {
			if rc.Resume {
				// Re-attach and resume exactly past the acknowledged
				// watermark: the server replays what was lost in flight and
				// the request keeps computing server-side throughout.
				if rerr := rc.reconnectResume(reqID, mark); rerr != nil {
					return nil, fmt.Errorf("viracocha: connection lost mid-request; %w", rerr)
				}
				// Re-send the command in case the original never arrived; a
				// request the server already knows is deduplicated.
				rc.send(req) // a second loss here loops back through resume
				continue
			}
			// The request's replies are bound to the dead connection and
			// cannot be recovered; restore the link for the next request.
			if rerr := rc.Reconnect(); rerr != nil {
				return nil, fmt.Errorf("viracocha: connection lost mid-request; %w", rerr)
			}
			return nil, fmt.Errorf("viracocha: connection lost mid-request (reconnected; resubmit the command)")
		}
		if m.ReqID != reqID {
			continue // stale message from an abandoned request
		}
		if s := m.IntParam("sseq", 0); s > mark {
			mark = s
		}
		if m.Kind == "partial" {
			// Return the stream credit before anything else: even discarded
			// duplicates were consumed off the wire. The echoed sseq lets the
			// server tell a fresh frame's ack from a replayed frame's (whose
			// credit it already returned itself). Both go back as they came.
			rc.send(comm.Message{Kind: "ack", ReqID: reqID, Params: map[string]string{
				"rank": m.Params["rank"], "sseq": m.Params["sseq"],
			}})
		}
		part, _, err := asm.Add(m)
		if err != nil {
			return nil, err
		}
		if part != nil && onPartial != nil {
			onPartial(m.Seq, part)
		}
		if asm.Done {
			sendDone()
			return asm.Merged, asm.Err
		}
	}
}

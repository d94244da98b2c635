package viracocha

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/mesh"
)

// serveSystem builds a served system on an ephemeral port.
func serveSystem(t *testing.T, opts Options, dataset string, scale int) (*System, net.Listener) {
	t.Helper()
	sys := New(opts)
	if _, err := sys.AddDataset(dataset, scale); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sys.Serve(ln)
	return sys, ln
}

// streamParams is the canonical streamed journal-mode extraction used by the
// resume tests: block-tagged partials merge in canonical order, so the
// result must be byte-identical across connection-loss timelines.
func streamParams() map[string]string {
	return Params(
		"dataset", "engine", "workers", "2", "iso", "500",
		"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "1",
		"redistribute", "1",
	)
}

// plainParams is streamParams without redistribute: the partials carry no
// block tags, and the scheduler journals nothing but the dispatch.
func plainParams() map[string]string {
	p := streamParams()
	delete(p, "redistribute")
	return p
}

// referenceMesh runs the canonical extraction against a fault-free served
// system and returns its encoded bytes.
func referenceMesh(t *testing.T) []byte { return referenceMeshOf(t, streamParams()) }

// referenceMeshOf is referenceMesh for the extraction params describe.
func referenceMeshOf(t *testing.T, params map[string]string) []byte {
	t.Helper()
	sys, ln := serveSystem(t, Options{Workers: 2}, "engine", 1)
	defer ln.Close()
	_ = sys
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	m, err := rc.Run("iso.viewer", params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() == 0 {
		t.Fatal("reference extraction produced no triangles")
	}
	return m.EncodeBinary()
}

// TestReconnectResumeExact is the tentpole scenario: the connection is
// killed mid-stream by a deterministic fault rule, the client reconnects
// with its acknowledged watermark, the server replays exactly the missed
// frames, and the merged mesh is byte-identical to an uninterrupted run.
func TestReconnectResumeExact(t *testing.T) {
	ref := referenceMesh(t)

	plan := (&FaultPlan{Seed: 11}).Disconnect("sess-1", 5)
	sys, ln := serveSystem(t, Options{Workers: 2, Faults: plan}, "engine", 1)
	defer ln.Close()

	rc, err := DialResume(ln.Addr().String(), 5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var mu sync.Mutex
	partials := 0
	m, err := rc.Run("iso.viewer", streamParams(), func(seq int, part *Mesh) {
		mu.Lock()
		partials++
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if !bytes.Equal(m.EncodeBinary(), ref) {
		t.Fatalf("resumed mesh differs from uninterrupted run (%d triangles)", m.NumTriangles())
	}
	if partials == 0 {
		t.Fatal("no streamed partials observed")
	}
	if rc.SessionID() != "sess-1" {
		t.Fatalf("session ID = %q, want sess-1", rc.SessionID())
	}
	if rc.Epoch() == 0 {
		t.Fatal("epoch not bumped by the resume")
	}
	resumed := false
	for _, ev := range sys.Trace() {
		if strings.Contains(ev.Msg, "resumed at epoch") {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("no resume recorded in the trace — the discon rule never fired?")
	}
}

// TestReconnectThroughSimulatedWriteTimeout: a hang rule wedges the peer, the
// bridge's (simulated) write deadline severs the connection, and the resume
// path still converges on the exact result.
func TestReconnectThroughSimulatedWriteTimeout(t *testing.T) {
	ref := referenceMesh(t)

	plan := (&FaultPlan{Seed: 3}).Hang("sess-1")
	sys, ln := serveSystem(t, Options{Workers: 2, Faults: plan}, "engine", 1)
	defer ln.Close()

	rc, err := DialResume(ln.Addr().String(), 5, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	m, err := rc.Run("iso.viewer", streamParams(), nil)
	if err != nil {
		t.Fatalf("run through hang rule failed: %v", err)
	}
	if !bytes.Equal(m.EncodeBinary(), ref) {
		t.Fatal("mesh after simulated write timeouts differs from uninterrupted run")
	}
	timedOut := false
	for _, ev := range sys.Trace() {
		if strings.Contains(ev.Msg, "write timeout") {
			timedOut = true
		}
	}
	if !timedOut {
		t.Fatal("no write-timeout event in the trace")
	}
}

// TestReconnectStorm: several seeded disconnect rules kill the connection
// again and again during one streamed request; every timeline must converge
// on the byte-identical mesh. Scaled by SOAK_SEEDS like the recovery soak.
func TestReconnectStorm(t *testing.T) {
	ref := referenceMesh(t)
	rounds := 3
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			rounds = n
			if rounds > 12 {
				rounds = 12
			}
		}
	}
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("seed%d", round), func(t *testing.T) {
			plan := &FaultPlan{Seed: uint64(100 + round)}
			// Cumulative frame counts: the connection dies three times at
			// seed-dependent points in the stream.
			first := 2 + round%5
			plan.Disconnect("*", first).
				Disconnect("*", first+4).
				Disconnect("*", first+9)
			sys, ln := serveSystem(t, Options{Workers: 2, Faults: plan}, "engine", 1)
			defer ln.Close()
			rc, err := DialResume(ln.Addr().String(), 6, 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			m, err := rc.Run("iso.viewer", streamParams(), nil)
			if err != nil {
				t.Fatalf("storm run failed: %v", err)
			}
			if !bytes.Equal(m.EncodeBinary(), ref) {
				t.Fatal("storm timeline produced a different mesh")
			}
			_ = sys
		})
	}
}

// slowCommand holds a worker for long enough (wall time) that a drain
// arrives while the request is in flight.
type slowCommand struct{}

func (slowCommand) Name() string { return "test.slow" }
func (slowCommand) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	ctx.Charge(250 * time.Millisecond)
	return &mesh.Mesh{}, nil
}

// TestDrainGracefulTCP: a remote admin triggers drain; the in-flight request
// finishes, a late request bounces with a typed ErrDraining + retry-after,
// and the drain acknowledgement arrives once the system is idle.
func TestDrainGracefulTCP(t *testing.T) {
	sys := New(Options{Workers: 1, DrainTimeout: 5 * time.Second})
	if _, err := sys.AddDataset("tiny", 1); err != nil {
		t.Fatal(err)
	}
	sys.Register(slowCommand{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go sys.Serve(ln)
	addr := ln.Addr().String()

	rcA, err := DialResume(addr, 3, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rcA.Close()
	var errA error
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		_, errA = rcA.Run("test.slow", Params("dataset", "tiny", "workers", "1"), nil)
	}()
	time.Sleep(80 * time.Millisecond) // test.slow is now mid-charge

	admin, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	var drainErr error
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		drainErr = admin.Drain()
	}()
	time.Sleep(50 * time.Millisecond) // drain mode is now active

	rcB, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcB.Close()
	_, errB := rcB.Run("test.slow", Params("dataset", "tiny", "workers", "1"), nil)
	if !errors.Is(errB, ErrDraining) {
		t.Fatalf("post-drain request error = %v, want ErrDraining", errB)
	}
	var de *DrainingError
	if !errors.As(errB, &de) || de.RetryAfter <= 0 {
		t.Fatalf("drain rejection = %#v, want typed DrainingError with retry-after", errB)
	}

	<-doneA
	if errA != nil {
		t.Fatalf("in-flight request failed under drain: %v", errA)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain acknowledgement never arrived")
	}
	if drainErr != nil {
		t.Fatalf("drain reported: %v", drainErr)
	}
}

// TestServerRestartResumeFromWAL: drain → CloseWAL (final checkpoint) → stop
// → new process recovers the same WAL directory and rebinds the same port →
// the surviving client's next request transparently reconnects and resumes
// its old session (same ID, bumped epoch). An impostor session is denied.
func TestServerRestartResumeFromWAL(t *testing.T) {
	opts := Options{Workers: 2, SessionLease: 5 * time.Second, WALDir: t.TempDir(), WALFsync: "off"}
	bootWAL := func(addr string) (*System, net.Listener) {
		sys := New(opts)
		if _, err := sys.AddDataset("tiny", 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.RecoverWAL(); err != nil {
			t.Fatalf("RecoverWAL: %v", err)
		}
		ln := listenRetry(t, addr)
		go sys.Serve(ln)
		return sys, ln
	}
	sys1, ln1 := bootWAL("")
	addr := ln1.Addr().String()

	rc, err := DialResume(addr, 8, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Run("iso.dataman", Params(
		"dataset", "tiny", "workers", "2", "iso", "0.5"), nil); err != nil {
		t.Fatal(err)
	}
	sessID, epoch := rc.SessionID(), rc.Epoch()
	if sessID == "" {
		t.Fatal("no durable session established")
	}

	// Graceful shutdown of the first process.
	if err := sys1.Drain(2 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := sys1.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}
	sys1.DisconnectClients()
	ln1.Close()

	// Second process: recover, rebind the same address.
	sys2, ln2 := bootWAL(addr)
	defer ln2.Close()

	// The client's next request rides the automatic reconnect + resume.
	m, err := rc.Run("iso.dataman", Params(
		"dataset", "tiny", "workers", "2", "iso", "0.5"), nil)
	if err != nil {
		t.Fatalf("post-restart request failed: %v", err)
	}
	if m.NumTriangles() == 0 {
		t.Fatal("post-restart request returned nothing")
	}
	if rc.SessionID() != sessID {
		t.Fatalf("session ID changed across restart: %q → %q", sessID, rc.SessionID())
	}
	if rc.Epoch() <= epoch {
		t.Fatalf("epoch not bumped by the restart resume: %d → %d", epoch, rc.Epoch())
	}
	if n := sys2.SessionCount(); n != 1 {
		t.Fatalf("restored session count = %d, want 1", n)
	}

	// A fabricated session is fenced out.
	imp, err := DialResume(addr, 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	imp.mu.Lock()
	imp.sessionID, imp.epoch = "sess-999", 0
	imp.mu.Unlock()
	if err := imp.handshake(nil); !errors.Is(err, ErrResumeDenied) {
		t.Fatalf("impostor resume error = %v, want ErrResumeDenied", err)
	}
	// A stale epoch is fenced the same way: the real session resumed at a
	// higher epoch, so its old epoch no longer opens the door.
	stale, err := DialResume(addr, 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.mu.Lock()
	stale.sessionID, stale.epoch = sessID, epoch // pre-restart epoch
	stale.mu.Unlock()
	if err := stale.handshake(nil); !errors.Is(err, ErrResumeDenied) {
		t.Fatalf("stale-epoch resume error = %v, want ErrResumeDenied", err)
	}
}

// TestSessionLeaseExpiryPurgesOverTCP: a durable client that vanishes
// without a goodbye is purged once its lease expires.
func TestSessionLeaseExpiryPurgesOverTCP(t *testing.T) {
	sys, ln := serveSystem(t, Options{Workers: 1, SessionLease: 60 * time.Millisecond}, "tiny", 1)
	defer ln.Close()
	rc, err := DialResume(ln.Addr().String(), 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Run("iso.dataman", Params(
		"dataset", "tiny", "workers", "1", "iso", "0.5"), nil); err != nil {
		t.Fatal(err)
	}
	if n := sys.SessionCount(); n != 1 {
		t.Fatalf("session count = %d, want 1", n)
	}
	rc.closeConn() // vanish without the bye frame
	deadline := time.Now().Add(5 * time.Second)
	for sys.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session not purged after lease expiry: count = %d", sys.SessionCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestByePurgesPromptly: Close on a durable client releases the lease
// immediately instead of waiting out the TTL.
func TestByePurgesPromptly(t *testing.T) {
	sys, ln := serveSystem(t, Options{Workers: 1, SessionLease: 10 * time.Second}, "tiny", 1)
	defer ln.Close()
	rc, err := DialResume(ln.Addr().String(), 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Run("iso.dataman", Params(
		"dataset", "tiny", "workers", "1", "iso", "0.5"), nil); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for sys.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("bye did not purge the session promptly")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEphemeralSessionRetiresFinishedRequests: a client that never sent a
// hello never sends "done" either, and nothing can resume its requests, so
// each final frame retires its request: N requests on one connection leave
// at most one record in the session, not N.
func TestEphemeralSessionRetiresFinishedRequests(t *testing.T) {
	sys, ln := serveSystem(t, Options{Workers: 2}, "tiny", 1)
	defer ln.Close()
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := rc.Run("iso.dataman", Params("dataset", "tiny", "iso", "0.5", "workers", "2"), nil); err != nil {
			t.Fatal(err)
		}
	}
	b := sys.bridge()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sessions) != 1 {
		t.Fatalf("%d sessions, want the connection's one", len(b.sessions))
	}
	for _, sess := range b.sessions {
		if sess.durable || len(sess.reqs) > 1 {
			t.Fatalf("ephemeral session (durable %v) holds %d request records after %d requests, want at most 1",
				sess.durable, len(sess.reqs), n)
		}
	}
}

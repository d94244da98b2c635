package viracocha

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"viracocha/internal/comm"
)

// pipeHello sends a hello through the bridge's own connection handler over an
// in-memory pipe: a fresh session when id is "", else a resume of id at
// epoch. Closing the returned client's connection detaches the session.
func pipeHello(b *sessionBridge, id string, epoch int) (*RemoteClient, error) {
	client, server := net.Pipe()
	go b.serveConn(comm.NewConn(server))
	rc := &RemoteClient{Resume: true, sessionID: id, epoch: epoch}
	rc.setConn(comm.NewConn(client))
	return rc, rc.handshake(nil)
}

// awaitBridge polls cond under the bridge's lock until it holds, and fails
// the test after a few seconds.
func awaitBridge(t *testing.T, b *sessionBridge, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		done := cond()
		b.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the bridge never reached the awaited state")
		}
	}
}

// TestExpiredResumePurgesSession: a resume that names a session whose lease
// lapsed while it was detached is denied, and the session is gone at once.
// The bridge is never started, so no sweeper tick can purge it first: the
// resume is the only path that sees the lapse.
func TestExpiredResumePurgesSession(t *testing.T) {
	const ttl = 20 * time.Millisecond
	sys := New(Options{Workers: 1, SessionLease: ttl})
	b := sys.bridge()
	rc, err := pipeHello(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	id := rc.SessionID()
	rc.closeConn()
	awaitBridge(t, b, func() bool { return b.sessions[id].conn == nil })
	time.Sleep(2 * ttl)
	late, err := pipeHello(b, id, rc.Epoch())
	late.closeConn()
	if !errors.Is(err, ErrResumeDenied) {
		t.Fatalf("resume after the lease lapsed = %v, want ErrResumeDenied", err)
	}
	if n := sys.SessionCount(); n != 0 {
		t.Fatalf("the denied resume left %d sessions behind: a lapsed session leaks until a restart", n)
	}
}

// TestRacingResumesOneWins: two reconnects race to resume one session at the
// same epoch. Exactly one wins, the other is fenced, and the winner's epoch
// opens the next resume.
func TestRacingResumesOneWins(t *testing.T) {
	sys := New(Options{Workers: 1})
	b := sys.bridge()
	first, err := pipeHello(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.closeConn()
	id := first.SessionID()
	var wg sync.WaitGroup
	clients := make([]*RemoteClient, 2)
	errs := make([]error, 2)
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients[i], errs[i] = pipeHello(b, id, 0)
		}()
	}
	wg.Wait()
	var winner *RemoteClient
	for i, err := range errs {
		defer clients[i].closeConn()
		switch {
		case err == nil && winner == nil:
			winner = clients[i]
		case err == nil:
			t.Fatal("both racing resumes won")
		case !errors.Is(err, ErrResumeDenied):
			t.Fatalf("losing resume = %v, want ErrResumeDenied", err)
		}
	}
	if winner == nil {
		t.Fatal("neither racing resume won")
	}
	if winner.Epoch() != 1 {
		t.Fatalf("winner's epoch = %d, want 1", winner.Epoch())
	}
	next, err := pipeHello(b, id, winner.Epoch())
	if err != nil {
		t.Fatalf("the winner's next resume: %v", err)
	}
	defer next.closeConn()
	if next.Epoch() != 2 {
		t.Fatalf("epoch after the winner's next resume = %d, want 2", next.Epoch())
	}
}

// TestAttachedSessionHoldsNoLease: a session whose connection stays up holds
// no lease, however long it is idle: the sweeper leaves it alone and a resume
// of it succeeds, with no frame ever renewing anything.
func TestAttachedSessionHoldsNoLease(t *testing.T) {
	const ttl = 20 * time.Millisecond
	sys := New(Options{Workers: 1, SessionLease: ttl})
	sys.Start()
	defer sys.Kill()
	b := sys.bridge()
	b.start()
	rc, err := pipeHello(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.closeConn()
	time.Sleep(3 * ttl)
	if n := sys.SessionCount(); n != 1 {
		t.Fatalf("an attached idle session was swept: %d sessions", n)
	}
	again, err := pipeHello(b, rc.SessionID(), rc.Epoch())
	if err != nil {
		t.Fatalf("resume of an attached session idle for 3 TTLs: %v", err)
	}
	again.closeConn()
}

// TestRestoredLeaseResumesAtRecordedEpoch: after a crash, RecoverWAL gives
// every durable session a full lease counted from the restore, at the epoch
// the WAL recorded. The pre-crash epoch stays fenced, and a fresh session
// continues the recovered ID sequence.
func TestRestoredLeaseResumesAtRecordedEpoch(t *testing.T) {
	const ttl = 200 * time.Millisecond
	opts := Options{Workers: 1, SessionLease: ttl, WALDir: t.TempDir(), WALFsync: "always"}
	sys1 := New(opts)
	if err := sys1.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rc, err := pipeHello(sys1.bridge(), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.closeConn()
	}
	rc, err := pipeHello(sys1.bridge(), "sess-3", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.closeConn()
	sys1.Kill()

	sys2 := New(opts)
	defer sys2.Kill()
	time.Sleep(ttl) // a lease not counted from the restore would lapse at once
	if err := sys2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if n := sys2.SessionCount(); n != 3 {
		t.Fatalf("restored %d sessions, want 3", n)
	}
	b := sys2.bridge()
	if stale, err := pipeHello(b, "sess-3", 0); !errors.Is(err, ErrResumeDenied) {
		stale.closeConn()
		t.Fatalf("resume at the pre-crash epoch = %v, want ErrResumeDenied", err)
	}
	time.Sleep(ttl / 2)
	back, err := pipeHello(b, "sess-3", 1)
	if err != nil {
		t.Fatalf("resume of a restored session at its recorded epoch: %v", err)
	}
	defer back.closeConn()
	if back.Epoch() != 2 {
		t.Fatalf("epoch after the restored resume = %d, want 2", back.Epoch())
	}
	fresh, err := pipeHello(b, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.closeConn()
	if fresh.SessionID() != "sess-4" {
		t.Fatalf("fresh session after the restore = %s, want sess-4", fresh.SessionID())
	}
}

// TestResumeOfEphemeralSessionDenied: a hello naming the admission name an
// ephemeral session is keyed by is denied: only a durable session resumes.
func TestResumeOfEphemeralSessionDenied(t *testing.T) {
	sys := New(Options{Workers: 1})
	b := sys.bridge()
	client, server := net.Pipe()
	defer client.Close()
	go b.serveConn(comm.NewConn(server))
	if err := comm.NewConn(client).Send(comm.Message{Kind: "ack", ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	var id string
	awaitBridge(t, b, func() bool {
		for sid := range b.sessions {
			id = sid
		}
		return id != ""
	})
	rc, err := pipeHello(b, id, 0)
	rc.closeConn()
	if !errors.Is(err, ErrResumeDenied) {
		t.Fatalf("resume of ephemeral session %q = %v, want ErrResumeDenied", id, err)
	}
}

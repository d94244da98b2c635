package viracocha

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/faults"
	"viracocha/internal/wal"
)

// heldSync wraps the system's fault injector: once armed, the next WAL fsync
// closes blocked and waits for release before it goes on to the injector.
type heldSync struct {
	wal.FaultHooks
	mu      sync.Mutex
	armed   bool
	syncs   int
	blocked chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *heldSync) arm() {
	h.mu.Lock()
	h.armed = true
	h.mu.Unlock()
}

func (h *heldSync) OnWALSync(path string) error {
	h.mu.Lock()
	hold := h.armed
	h.armed = false
	h.syncs++
	h.mu.Unlock()
	if hold {
		close(h.blocked)
		<-h.release
	}
	return h.FaultHooks.OnWALSync(path)
}

func (h *heldSync) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.syncs
}

func (h *heldSync) unblock() { h.once.Do(func() { close(h.release) }) }

// serveHeldSync is serveWALSystem under fsync always and the server's
// stream window — so a stream is committed in many small batches — with the
// log's fsyncs going through a heldSync around the system's own fault
// injector.
func serveHeldSync(t *testing.T) (*System, net.Listener, *heldSync) {
	t.Helper()
	ov := DefaultOverloadConfig()
	sys := New(Options{Workers: 2, SessionLease: 10 * time.Second, WALDir: t.TempDir(), WALFsync: "always", Overload: &ov})
	if _, err := sys.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	h := &heldSync{FaultHooks: sys.Runtime.FaultInjector(), blocked: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(h.unblock)
	if err := sys.recoverWAL(h); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	ln := listenRetry(t, "")
	go sys.Serve(ln)
	return sys, ln, h
}

// startHeldRun starts the plain streamed request on a durable client and
// arms h once the client has its third partial. Without redistribute the
// scheduler journals nothing mid-stream, so the fsync held is one a batch of
// frames waits on. partials counts the partials the client receives.
func startHeldRun(t *testing.T, ln net.Listener, h *heldSync, partials *atomic.Int64) (*RemoteClient, chan runResult) {
	t.Helper()
	rc, err := DialResume(ln.Addr().String(), 8, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	done := make(chan runResult, 1)
	go func() {
		m, err := rc.Run("iso.viewer", plainParams(), func(int, *Mesh) {
			if partials.Add(1) == 3 {
				h.arm()
			}
		})
		done <- runResult{m, err}
	}()
	select {
	case <-h.blocked:
	case r := <-done:
		t.Fatalf("run ended (err=%v, %d partials, %d fsyncs) before an fsync was held", r.err, partials.Load(), h.count())
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync after the third partial")
	}
	return rc, done
}

// assertNoFrames fails if the client receives a partial, or the run ends,
// while the held fsync has not returned. Frames sent before the fsync began
// get a moment to land first.
func assertNoFrames(t *testing.T, partials *atomic.Int64, done chan runResult) {
	t.Helper()
	time.Sleep(50 * time.Millisecond)
	before := partials.Load()
	time.Sleep(200 * time.Millisecond)
	if got := partials.Load(); got != before {
		t.Fatalf("%d partials reached the client while the fsync of their batch was held", got-before)
	}
	select {
	case r := <-done:
		t.Fatalf("the run ended (err=%v) while an fsync was held", r.err)
	default:
	}
}

// within runs f and fails the test if it has not returned in d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	ret := make(chan struct{})
	go func() {
		f()
		close(ret)
	}()
	select {
	case <-ret:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v while an fsync was held", what, d)
	}
}

// TestFsyncOutsideBridgeLock: under fsync always, a durable streamed
// request's frame batch waits for its fsync outside the bridge's lock. While
// that fsync is held the bridge still answers (SessionCount), and no frame of
// the batch reaches the client; once it returns, the stream completes to the
// reference bytes.
func TestFsyncOutsideBridgeLock(t *testing.T) {
	ref := referenceMeshOf(t, plainParams())
	sys, ln, h := serveHeldSync(t)
	defer ln.Close()
	var partials atomic.Int64
	_, done := startHeldRun(t, ln, h, &partials)
	within(t, 100*time.Millisecond, "SessionCount", func() {
		if n := sys.SessionCount(); n != 1 {
			t.Errorf("SessionCount = %d, want 1", n)
		}
	})
	assertNoFrames(t, &partials, done)
	h.unblock()
	r := <-done
	if r.err != nil {
		t.Fatalf("run after the held fsync: %v", r.err)
	}
	if !bytes.Equal(r.m.EncodeBinary(), ref) {
		t.Fatalf("mesh differs from the reference (%d triangles)", r.m.NumTriangles())
	}
	if err := sys.WALErr(); err != nil {
		t.Fatalf("WAL error: %v", err)
	}
}

// TestResumeWaitsForCommit: a client that resumes while a batch of frames is
// still uncommitted is replayed nothing until the fsync covering the batch
// returns, and then completes to the reference bytes.
func TestResumeWaitsForCommit(t *testing.T) {
	ref := referenceMeshOf(t, plainParams())
	sys, ln, h := serveHeldSync(t)
	defer ln.Close()
	var partials atomic.Int64
	rc, done := startHeldRun(t, ln, h, &partials)
	within(t, time.Second, "DisconnectClients", sys.DisconnectClients)
	assertNoFrames(t, &partials, done)
	h.unblock()
	r := <-done
	if r.err != nil {
		t.Fatalf("resumed run: %v", r.err)
	}
	if !bytes.Equal(r.m.EncodeBinary(), ref) {
		t.Fatalf("resumed mesh differs from the reference (%d triangles)", r.m.NumTriangles())
	}
	if rc.Epoch() == 0 {
		t.Fatal("the client never resumed: epoch not bumped")
	}
}

// TestJournalRecordsRideTheNextCommit: under fsync always, the scheduler's
// journal hooks and a retirement only write — no fsync under the scheduler's
// or the bridge's lock — and the next frame's commit covers their records.
func TestJournalRecordsRideTheNextCommit(t *testing.T) {
	h := &heldSync{FaultHooks: (*faults.Injector)(nil)}
	w := newWALSink(t.TempDir())
	if err := w.open(wal.PolicyAlways, h); err != nil {
		t.Fatal(err)
	}
	w.LeaseIssue("sess-1", 0, "adm")
	w.commit(w.Admit("sess-1", 7, 70, comm.Message{Kind: "command", ReqID: 7, Command: "iso.viewer"}, &streamLog{}))
	base := h.count()
	if base != 2 {
		t.Fatalf("lease and admission barrier made %d fsyncs, want 2", base)
	}
	for _, hook := range []struct {
		name string
		call func()
	}{
		{"Dispatch", func() { w.Dispatch(70, 0, 2) }},
		{"JournalSpan", func() { w.JournalSpan(70, 0, 0, []int{1, 2}) }},
		{"JournalMark", func() { w.JournalMark(70, 0, 0, 1, 3) }},
		{"Retire", func() { w.Retire("sess-1", 7) }},
	} {
		hook.call()
		if n := h.count() - base; n != 0 {
			t.Fatalf("%s made %d fsyncs", hook.name, n)
		}
	}
	frame := comm.NewFrame(comm.Message{Kind: "partial", ReqID: 7, Rank: comm.Some(0), SSeq: comm.Some(1)})
	w.flush(w.Frame("sess-1", 7, frame))
	if n := h.count() - base; n != 1 {
		t.Fatalf("the frame's commit made %d fsyncs, want 1", n)
	}
	w.flushAll()
	if n := h.count() - base; n != 1 {
		t.Fatal("the frame's commit left earlier records unsynced")
	}
	if st := w.stats(); st.Records != 7 || st.Fsyncs != uint64(h.count()) {
		t.Fatalf("stats = %+v, want 7 records and %d fsyncs", st, h.count())
	}
}

package viracocha

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
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
	t.Cleanup(sys.Kill)
	t.Cleanup(h.unblock) // runs first: Kill writes out what is staged
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
// while the held fsync has not returned: a resume waits for it. Frames sent
// before the fsync began get a moment to land first.
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

// framesFlow returns the run's result once it ends, or an error if the client
// goes 100 ms without a new partial first, while the held fsync has not
// returned: frames do not wait for the fsync of their records.
func framesFlow(partials *atomic.Int64, done chan runResult) (runResult, error) {
	for {
		before := partials.Load()
		select {
		case r := <-done:
			return r, nil
		case <-time.After(100 * time.Millisecond):
		}
		if partials.Load() == before {
			return runResult{}, fmt.Errorf("no partial reached the client for 100 ms while an fsync was held (%d so far)", before)
		}
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

// TestFsyncOutsideBridgeLock: under fsync always, the WAL's writer fsyncs
// with no bridge lock held, and no partial waits for it. While an fsync is
// held the bridge still answers (SessionCount) and every remaining partial of
// the stream reaches the client; only the final frame waits for its fsync.
// Once the fsync returns, the run ends byte-identical to the reference.
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
	// The stream runs on until no partial arrives for 200 ms.
	held := partials.Load()
	for {
		time.Sleep(200 * time.Millisecond)
		n := partials.Load()
		if n == held {
			break
		}
		held = n
	}
	if len(done) > 0 {
		t.Fatal("the run ended while the fsync covering its final frame was held")
	}
	h.unblock()
	r := <-done
	if r.err != nil {
		t.Fatalf("run after the held fsync: %v", r.err)
	}
	if n := partials.Load(); n != held || held <= 3 {
		t.Fatalf("%d partials reached the client while the fsync was held, %d in all: partials waited for the fsync", held, n)
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

// TestSealOutsideBridgeLock: a checkpoint's segment seal runs on the WAL's
// writer with no bridge or sink lock held. Two durable sessions stream under
// fsync off — so the seal is the only fsync left once both are admitted —
// with a segment small enough that a checkpoint comes within a few frames.
// While that seal is held the bridge answers SessionCount within 100 ms and
// both streams keep reaching their clients; both end byte-identical.
func TestSealOutsideBridgeLock(t *testing.T) {
	ref := referenceMeshOf(t, plainParams())
	ov := DefaultOverloadConfig()
	sys := New(Options{Workers: 4, SessionLease: 10 * time.Second, WALDir: t.TempDir(), WALFsync: "off",
		Overload: &ov, Faults: pacedReads()})
	sys.wal.segBytes = 64 << 10
	if _, err := sys.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	h := &heldSync{FaultHooks: sys.Runtime.FaultInjector(), blocked: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(sys.Kill)
	t.Cleanup(h.unblock) // runs first: Kill writes out what is staged
	if err := sys.recoverWAL(h); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	ln := listenRetry(t, "")
	defer ln.Close()
	go sys.Serve(ln)

	var partials [2]atomic.Int64
	var dones [2]chan runResult
	for i := range dones {
		rc, err := DialResume(ln.Addr().String(), 8, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		dones[i] = make(chan runResult, 1)
		go func() {
			m, err := rc.Run("iso.viewer", plainParams(), func(int, *Mesh) { partials[i].Add(1) })
			dones[i] <- runResult{m, err}
		}()
	}
	// Both admissions are committed once both clients hold a partial: from
	// then on the writer's next fsync is a seal.
	for deadline := time.Now().Add(10 * time.Second); partials[0].Load() == 0 || partials[1].Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two streams never both started")
		}
	}
	h.arm()
	select {
	case <-h.blocked:
	case <-time.After(10 * time.Second):
		t.Fatalf("no seal within 10 s of both streams starting: %+v, partials %d %d", sys.WALStats(), partials[0].Load(), partials[1].Load())
	}
	for i := range dones {
		if len(dones[i]) > 0 {
			t.Fatalf("session %d finished before the seal was held: raise the pace rule's sleep", i)
		}
	}
	within(t, 100*time.Millisecond, "SessionCount", func() {
		if n := sys.SessionCount(); n != 2 {
			t.Errorf("SessionCount = %d, want 2", n)
		}
	})
	var results [2]runResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range dones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = framesFlow(&partials[i], dones[i])
		}()
	}
	wg.Wait()
	h.unblock()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if r.err != nil {
			t.Fatalf("session %d under the held seal: %v", i, r.err)
		}
		if !bytes.Equal(r.m.EncodeBinary(), ref) {
			t.Fatalf("session %d: mesh differs from the reference (%d triangles)", i, r.m.NumTriangles())
		}
	}
}

// commitAll commits every record the sink staged so far.
func commitAll(w *walSink) {
	w.mu.Lock()
	lsn := w.staged
	w.mu.Unlock()
	w.commit(lsn)
}

// TestJournalRecordsRideTheNextCommit: under fsync always, the scheduler's
// journal hooks, a retirement and a frame only stage their records — each
// returns while the writer is held inside an fsync — and the writer's next
// turn writes the four of them with one write and covers them with one
// fsync.
func TestJournalRecordsRideTheNextCommit(t *testing.T) {
	h := &heldSync{FaultHooks: (*faults.Injector)(nil), blocked: make(chan struct{}), release: make(chan struct{})}
	w := newWALSink(t.TempDir())
	t.Cleanup(w.kill)
	t.Cleanup(h.unblock) // runs first: kill writes out what is staged
	if err := w.open(wal.PolicyAlways, h); err != nil {
		t.Fatal(err)
	}
	w.LeaseIssue("sess-1", 0, "adm")
	w.commit(w.Admit("sess-1", 7, 70, comm.Message{Kind: "command", ReqID: 7, Command: "iso.viewer"}, &streamLog{}))
	h.arm()
	w.Dispatch(70, 0, 2) // its turn's fsync is the held one
	<-h.blocked
	held := w.stats()
	frame := comm.NewFrame(comm.Message{Kind: "partial", ReqID: 7, Rank: comm.Some(0), SSeq: comm.Some(1)})
	for _, hook := range []struct {
		name string
		call func()
	}{
		{"JournalSpan", func() { w.JournalSpan(70, 0, 0, []int{1, 2}) }},
		{"JournalMark", func() { w.JournalMark(70, 0, 0, 1, 3) }},
		{"Retire", func() { w.Retire("sess-1", 7) }},
		{"Frame", func() { w.Frame("sess-1", 7, frame, false) }},
	} {
		within(t, 100*time.Millisecond, hook.name, hook.call)
	}
	if st := w.stats(); st != held {
		t.Fatalf("stats moved from %+v to %+v while the writer was held", held, st)
	}
	h.unblock()
	commitAll(w)
	st := w.stats()
	if st.Records != held.Records+4 || st.Writes != held.Writes+1 {
		t.Fatalf("stats = %+v after %+v: want the four staged records in one write", st, held)
	}
	if st.Fsyncs != held.Fsyncs+2 || st.Fsyncs != uint64(h.count()) {
		t.Fatalf("stats = %+v after %+v (%d fsyncs seen): want the held fsync and one for the batch", st, held, h.count())
	}
}

// TestWALWriterExits: the WAL writer is a goroutine of the sink's. A served
// system that ran a durable request leaves no goroutine behind once it is
// closed (CloseWAL, then Kill) or only killed.
func TestWALWriterExits(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		before := runtime.NumGoroutine()
		func() {
			sys, ln := serveWALSystem(t, Options{Workers: 2, WALDir: t.TempDir(), WALFsync: "always"}, "")
			rc, err := DialResume(ln.Addr().String(), 4, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rc.Run("iso.viewer", plainParams(), nil); err != nil {
				t.Fatal(err)
			}
			rc.Close()
			ln.Close()
			if graceful {
				if err := sys.CloseWAL(); err != nil {
					t.Fatal(err)
				}
			}
			sys.Kill()
		}()
		n := 0
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if n = runtime.NumGoroutine(); n <= before || time.Now().After(deadline) {
				break
			}
		}
		if n > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("graceful=%v: %d goroutines after the system went, %d before it:\n%s", graceful, n, before, buf[:runtime.Stack(buf, true)])
		}
	}
}

package viracocha

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dataset"
	"viracocha/internal/wal"
)

// serveWALSystem builds a WAL-backed served system: dataset added, WAL
// recovered (a no-op on a fresh directory), listener bound. Pass addr "" for
// an ephemeral port, or a previous listener's address to model a restarted
// process rebinding the same endpoint.
// pacedReads is the fault plan that makes every engine block read sleep 4 ms,
// pacing an extraction so a kill lands mid-run.
func pacedReads() *FaultPlan { return new(FaultPlan).Pace("engine", 4*time.Millisecond) }

func serveWALSystem(t *testing.T, opts Options, addr string) (*System, net.Listener) {
	t.Helper()
	sys := New(opts)
	if _, err := sys.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RecoverWAL(); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	ln := listenRetry(t, addr)
	go sys.Serve(ln)
	return sys, ln
}

// listenRetry binds addr, retrying while the previous process's socket
// lingers in teardown.
func listenRetry(t *testing.T, addr string) net.Listener {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	for i := 0; ; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type runResult struct {
	m   *Mesh
	err error
}

// startStreamRun launches the canonical streamed extraction on its own
// goroutine and returns the result channel.
func startStreamRun(rc *RemoteClient) chan runResult {
	done := make(chan runResult, 1)
	go func() {
		m, err := rc.Run("iso.viewer", streamParams(), nil)
		done <- runResult{m, err}
	}()
	return done
}

// killInWindow hard-kills sys mid-run, at a point the restart assertions can
// rely on: the WAL mirror holds at least want block marks and not yet all of
// the step's. With journaled set, the journal — read the way recovery will
// read it — must also prove some but not all blocks unfinished, which needs
// every rank to have declared its span (one that has not makes recovery
// distrust the journal and restart the request whole: a legal timeline, but
// not the one a BlocksRecomputed assertion is about). The log is frozen under
// the same lock holds that observed the window — atKill, if given, runs under
// it first — so what recovery finds is what was observed, however the pacing
// sleeps and this goroutine happen to be scheduled. A run that finishes, or
// journals its last block, before the window was seen fails here by name
// rather than in an assertion downstream.
func killInWindow(t *testing.T, sys *System, ln net.Listener, done chan runResult, want int, journaled bool, atKill func(w *walSink)) {
	t.Helper()
	d, err := dataset.ByName("engine")
	if err != nil {
		t.Fatal(err)
	}
	total := d.WithScale(1).Blocks
	b, w := sys.bridge(), sys.wal
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(time.Millisecond) {
		select {
		case r := <-done:
			t.Fatalf("run finished before the kill (err=%v) — raise the pace rule's sleep", r.err)
		default:
		}
		b.mu.Lock() // stream logs grow under the bridge's lock; it orders before the WAL's
		w.mu.Lock()
		marks, unfinished := 0, 0
		for _, sess := range w.state.Sessions {
			for _, r := range sess.Reqs {
				marks += len(r.Done)
				if miss, trusted := unfinishedSpan(r); trusted {
					unfinished += len(miss)
				}
			}
		}
		if marks >= want && marks < total && (!journaled || unfinished > 0 && unfinished < total) {
			if atKill != nil {
				atKill(w)
			}
			w.closed = true // nothing after this instant reaches the disk
			w.mu.Unlock()
			b.mu.Unlock()
			break
		}
		w.mu.Unlock()
		b.mu.Unlock()
		if marks >= total {
			t.Fatalf("kill window missed: all %d blocks journaled before the window was observed — raise the pace rule's sleep", total)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no kill window in 15s: %d marks (want %d), %d blocks provably unfinished", marks, want, unfinished)
		}
	}
	ln.Close()
	sys.Kill()
}

// blocksRecomputed reports the most blocks any request of sys re-issued. It
// drains first: the client has its final before the ranks' completion reports
// reach the scheduler, and a request's record is filed only once they all have.
func blocksRecomputed(t *testing.T, sys *System) int {
	t.Helper()
	if err := sys.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	for _, st := range sys.AllStats() {
		if st.BlocksRecomputed > recomputed {
			recomputed = st.BlocksRecomputed
		}
	}
	return recomputed
}

// TestHardKillRestartResume is the tentpole scenario: a streamed extraction
// is mid-flight when the server is hard-killed (no drain, no snapshot, no
// final flush — the SIGKILL/power-cut equivalent). A second process recovers
// the WAL, re-admits the request, re-dispatches only the journal-unfinished
// blocks, and the reconnecting durable client's merged mesh is byte-identical
// to a crash-free run.
func TestHardKillRestartResume(t *testing.T) {
	ref := referenceMesh(t)
	opts := Options{
		Workers:      2,
		SessionLease: 20 * time.Second,
		WALDir:       t.TempDir(),
		WALFsync:     "always",
		Faults:       pacedReads(), // pace the extraction so the kill lands mid-run
	}
	sys1, ln1 := serveWALSystem(t, opts, "")
	addr := ln1.Addr().String()

	rc, err := DialResume(addr, 200, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	done := startStreamRun(rc)

	// Once at least two blocks are durably journaled, pull the plug with no
	// warning.
	killInWindow(t, sys1, ln1, done, 2, true, nil)

	// Second process: same WAL directory, same address.
	sys2, ln2 := serveWALSystem(t, opts, addr)
	defer ln2.Close()
	if n := sys2.SessionCount(); n != 1 {
		t.Fatalf("recovered session count = %d, want 1", n)
	}

	var out runResult
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("resumed run never finished after the restart")
	}
	if out.err != nil {
		t.Fatalf("resumed run failed: %v", out.err)
	}
	if !bytes.Equal(out.m.EncodeBinary(), ref) {
		t.Fatalf("mesh after hard-kill restart differs from crash-free run (%d triangles)", out.m.NumTriangles())
	}

	// Recovery must have re-issued SOME blocks (the run was unfinished) but
	// not ALL of them (at least two were journaled done before the kill).
	d, err := dataset.ByName("engine")
	if err != nil {
		t.Fatal(err)
	}
	total := d.WithScale(1).Blocks
	recomputed := blocksRecomputed(t, sys2)
	if recomputed <= 0 || recomputed >= total {
		t.Fatalf("BlocksRecomputed = %d, want in (0, %d): recovery should re-issue only the journal-unfinished blocks", recomputed, total)
	}
}

// TestFinishedRequestNotReadmitted: a durable request that streamed its final
// frame is not re-run by a recovery, even though its client never sent "done"
// (so its log is still held for a resume): a hard kill and RecoverWAL leave
// it restored but routed to nothing.
func TestFinishedRequestNotReadmitted(t *testing.T) {
	opts := Options{Workers: 1, WALDir: t.TempDir(), WALFsync: "always"}
	boot := func() *System {
		sys := New(opts)
		if _, err := sys.AddDataset("tiny", 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.RecoverWAL(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys1 := boot()
	rc, err := pipeHello(sys1.bridge(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.closeConn()
	if err := rc.send(comm.Message{Kind: "command", Command: "iso.dataman", ReqID: 1,
		Params: Params("dataset", "tiny", "workers", "1", "iso", "0.5")}); err != nil {
		t.Fatal(err)
	}
	for {
		m, ok := rc.recv()
		if !ok {
			t.Fatal("connection lost before the final frame")
		}
		if m.Final {
			if m.Kind == "error" {
				t.Fatalf("request failed: %s", m.Params["error"])
			}
			break
		}
	}
	sys1.Kill()

	sys2 := boot()
	defer sys2.Kill()
	b := sys2.bridge()
	b.mu.Lock()
	defer b.mu.Unlock()
	sess := b.sessions[rc.SessionID()]
	if sess == nil || len(sess.reqs) != 1 || !sess.reqs[1].log.final() {
		t.Fatalf("the finished request's log was not restored for a resume: %+v", sess)
	}
	if len(b.routes) != 0 {
		t.Fatalf("recovery re-admitted %d finished requests", len(b.routes))
	}
}

// TestHardKillTornTailRecovery tears a WAL append mid-record (the torn final
// frame a power cut leaves behind), hard-kills the server, and verifies the
// restart truncates at the tear, logs it, and still resumes the client to the
// byte-identical mesh — the blocks whose records sat past the tear are simply
// recomputed and the client deduplicates the overlap.
func TestHardKillTornTailRecovery(t *testing.T) {
	ref := referenceMesh(t)
	walDir := t.TempDir()
	// The 20th append lands mid-extraction: after the lease, admission,
	// dispatch and span records, a handful of blocks' frame+mark pairs have
	// gone through and plenty remain.
	plan := pacedReads().TearAppend("*", 20)
	plan.Seed = 5
	opts := Options{
		Workers:      2,
		SessionLease: 20 * time.Second,
		WALDir:       walDir,
		WALFsync:     "always",
		Faults:       pacedReads(),
	}
	withFault := opts
	withFault.Faults = plan
	sys1, ln1 := serveWALSystem(t, withFault, "")
	addr := ln1.Addr().String()

	rc, err := DialResume(addr, 200, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	done := startStreamRun(rc)

	// Wait for the tear to fire, then hard-kill: the on-disk log now ends in
	// half a record, exactly as a power loss mid-write would leave it.
	deadline := time.Now().Add(15 * time.Second)
	for sys1.WALErr() == nil {
		select {
		case r := <-done:
			t.Fatalf("run finished before the tear fired (err=%v)", r.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("torn-append fault never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(sys1.WALErr(), wal.ErrTorn) {
		t.Fatalf("WAL error = %v, want ErrTorn", sys1.WALErr())
	}
	ln1.Close()
	sys1.Kill()

	// Restart without fault injection: recovery must truncate at the tear
	// and say so.
	sys2, ln2 := serveWALSystem(t, opts, addr)
	defer ln2.Close()
	torn := false
	for _, ev := range sys2.Trace() {
		if ev.Actor == "wal" && strings.Contains(ev.Msg, "torn tail") {
			torn = true
		}
	}
	if !torn {
		t.Fatal("recovery did not report the torn tail")
	}
	if n := sys2.SessionCount(); n != 1 {
		t.Fatalf("recovered session count = %d, want 1", n)
	}

	var out runResult
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("resumed run never finished after the torn-tail restart")
	}
	if out.err != nil {
		t.Fatalf("resumed run failed: %v", out.err)
	}
	if !bytes.Equal(out.m.EncodeBinary(), ref) {
		t.Fatal("mesh after torn-tail restart differs from crash-free run")
	}
}

// TestRestartSoak hard-kills the server at seeded points in the stream under
// alternating fsync policies and verifies every timeline converges on the
// byte-identical mesh. Scaled by RESTART_SEEDS like the other soaks.
func TestRestartSoak(t *testing.T) {
	ref := referenceMesh(t)
	rounds := 2
	if s := os.Getenv("RESTART_SEEDS"); s != "" {
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
			fsync := "always"
			if round%2 == 1 {
				fsync = "interval" // the admission barrier still syncs the lease + admit records
			}
			opts := Options{
				Workers:      2,
				SessionLease: 20 * time.Second,
				WALDir:       t.TempDir(),
				WALFsync:     fsync,
				Faults:       pacedReads(),
			}
			sys1, ln1 := serveWALSystem(t, opts, "")
			addr := ln1.Addr().String()

			rc, err := DialResume(addr, 200, 25*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			done := startStreamRun(rc)

			killInWindow(t, sys1, ln1, done, 2+round%4, false, nil) // seed-dependent kill point

			sys2, ln2 := serveWALSystem(t, opts, addr)
			defer ln2.Close()

			var out runResult
			select {
			case out = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("resumed run never finished after the restart")
			}
			if out.err != nil {
				t.Fatalf("resumed run failed (fsync %s): %v", fsync, out.err)
			}
			if !bytes.Equal(out.m.EncodeBinary(), ref) {
				t.Fatalf("restart timeline (fsync %s) produced a different mesh", fsync)
			}
			_ = sys2
		})
	}
}

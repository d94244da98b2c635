package viracocha

import (
	"bytes"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/wal"
)

// memoParams is the canonical streamed extraction of the memo facade tests;
// the isovalue spelling varies per call to exercise key canonicalization
// end to end.
func memoParams(iso string) map[string]string {
	return Params(
		"dataset", "engine", "workers", "2", "iso", iso,
		"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "1",
		"redistribute", "1",
	)
}

// TestMemoFacade: Options.Memo through the public API — a repeated request
// (under a different but numerically equal isovalue spelling) is a memo hit
// with a byte-identical mesh, and the counters surface on the System.
func TestMemoFacade(t *testing.T) {
	sys := New(Options{Workers: 2, VirtualTime: true, Memo: true})
	if _, err := sys.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	var res1, res2 *RunResult
	var err1, err2 error
	sys.Session(func(c *Client) {
		res1, err1 = c.Run("iso.viewer", memoParams("500"))
		res2, err2 = c.Run("iso.viewer", memoParams("500.0"))
	})
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v, %v", err1, err2)
	}
	if !bytes.Equal(res1.Merged.EncodeBinary(), res2.Merged.EncodeBinary()) {
		t.Fatal("memo replay mesh differs from the original")
	}
	ms := sys.MemoStats()
	if ms.Misses != 1 || ms.Hits != 1 {
		t.Fatalf("memo stats = %+v, want Misses=1 Hits=1 (\"500.0\" must collide with \"500\")", ms)
	}
	st2, ok := sys.Stats(res2.ReqID)
	if !ok || !st2.MemoHit {
		t.Fatalf("repeat stats = %+v (ok=%v), want MemoHit", st2, ok)
	}
	rep := sys.StatsReport()
	if rep.Marker != StatsReportMarker {
		t.Fatalf("report marker = %q", rep.Marker)
	}
	if rep.Memo.Hits != 1 || len(rep.Requests) == 0 {
		t.Fatalf("report = %+v, want memo hit and request records", rep.Memo)
	}
}

// TestMemoFacadeInvalidateStep: the public InvalidateStep sweeps memo entries
// along with block-derived items, so a rewritten step is never served stale.
func TestMemoFacadeInvalidateStep(t *testing.T) {
	sys := New(Options{Workers: 2, VirtualTime: true, Memo: true})
	if _, err := sys.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	var err1, err2 error
	sys.Session(func(c *Client) {
		_, err1 = c.Run("iso.viewer", memoParams("500"))
		sys.InvalidateStep("engine", -1)
		_, err2 = c.Run("iso.viewer", memoParams("500"))
	})
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v, %v", err1, err2)
	}
	ms := sys.MemoStats()
	if ms.Invalidations < 1 || ms.Misses != 2 || ms.Hits != 0 {
		t.Fatalf("memo stats = %+v, want both runs to miss across the invalidation", ms)
	}
}

// TestMemoDurableResume is the cross-subsystem acceptance test: a second
// client's memo-served stream is severed mid-replay by a deterministic fault
// rule, the client resumes its durable session (PR 6), and the replayed
// remainder still assembles a mesh byte-identical to the memo-off reference.
func TestMemoDurableResume(t *testing.T) {
	ref := referenceMesh(t) // memo off, fault free: the canonical bytes

	plan := (&FaultPlan{Seed: 17}).Disconnect("sess-2", 3)
	sys, ln := serveSystem(t, Options{Workers: 2, Memo: true, Faults: plan}, "engine", 1)
	defer ln.Close()

	// First durable client warms the memo entry.
	rcA, err := DialResume(ln.Addr().String(), 5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rcA.Close()
	mA, err := rcA.Run("iso.viewer", streamParams(), nil)
	if err != nil {
		t.Fatalf("warming run failed: %v", err)
	}
	if !bytes.Equal(mA.EncodeBinary(), ref) {
		t.Fatal("warming mesh differs from reference")
	}

	// Second durable client (sess-2) is served by memo replay; the discon
	// rule kills its connection after 3 frames, and the resume handshake
	// replays exactly the missed remainder.
	rcB, err := DialResume(ln.Addr().String(), 5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rcB.Close()
	mB, err := rcB.Run("iso.viewer", streamParams(), nil)
	if err != nil {
		t.Fatalf("memo-served resumed run failed: %v", err)
	}
	if !bytes.Equal(mB.EncodeBinary(), ref) {
		t.Fatal("memo-served resumed mesh differs from the memo-off reference")
	}
	if rcB.SessionID() != "sess-2" {
		t.Fatalf("session ID = %q, want sess-2 (the discon rule's target)", rcB.SessionID())
	}
	if rcB.Epoch() == 0 {
		t.Fatal("epoch not bumped: the connection was never severed and resumed")
	}
	ms := sys.MemoStats()
	if ms.Misses != 1 || ms.Hits < 1 {
		t.Fatalf("memo stats = %+v, want one producing extraction and a hit", ms)
	}
}

// TestMemoNotInWAL: memo results are a cache, not control-plane state. After
// memo traffic on a durable WAL server — stored results, a hit and an
// invalidation, on both sides of a checkpoint — neither the checkpoint nor
// the tail holds a memo record.
func TestMemoNotInWAL(t *testing.T) {
	dir := t.TempDir()
	sys, ln := serveWALSystem(t, Options{Workers: 2, Memo: true, WALDir: dir, WALFsync: "off"}, "")
	rc, err := DialResume(ln.Addr().String(), 5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	run := func(iso string) {
		if _, err := rc.Run("iso.viewer", memoParams(iso), nil); err != nil {
			t.Fatalf("iso %s: %v", iso, err)
		}
	}
	run("500")
	run("500.0")
	sys.wal.mu.Lock()
	err = sys.wal.checkpointLocked()
	sys.wal.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	run("600")
	sys.InvalidateStep("engine", -1)
	run("600")
	if ms := sys.MemoStats(); ms.Misses != 3 || ms.Hits != 1 || ms.Invalidations < 1 {
		t.Fatalf("memo stats = %+v, want 3 stored results, a hit and an invalidation", ms)
	}
	ln.Close()
	sys.Kill()

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	recs, err := comm.DecodeBatch(rec.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range recs {
		kinds[m.Kind]++
	}
	for _, raw := range rec.Records {
		m, err := comm.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		kinds[m.Kind]++
	}
	if kinds["wadmit"] == 0 {
		t.Fatalf("WAL records %v: the durable requests were not logged at all", kinds)
	}
	if kinds["wmemo"]+kinds["wmemoinval"] != 0 {
		t.Fatalf("WAL records %v: memo results logged", kinds)
	}
}

// TestMemoHardKillRestartsDirect: a durable memo-served request is
// hard-killed mid-stream. The restarted server holds no memo result, so the
// request is re-admitted on the direct path under a bumped attempt — the
// client drops the old attempt's frames wholesale — and the resumed mesh is
// byte-identical to a crash-free run.
func TestMemoHardKillRestartsDirect(t *testing.T) {
	ref := referenceMesh(t)
	opts := Options{
		Workers:        2,
		Memo:           true,
		SessionLease:   20 * time.Second,
		WALDir:         t.TempDir(),
		WALFsync:       "always",
		StorageLatency: 4 * time.Millisecond, // pace the extraction so the kill lands mid-stream
	}
	sys1, ln1 := serveWALSystem(t, opts, "")
	addr := ln1.Addr().String()
	rc, err := DialResume(addr, 200, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	done := startStreamRun(rc)

	// A memo subscriber journals no blocks: kill once a few of its frames,
	// but not the final one, are in the log.
	b, w := sys1.bridge(), sys1.wal
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(time.Millisecond) {
		select {
		case r := <-done:
			t.Fatalf("run finished before the kill (err=%v)", r.err)
		default:
		}
		b.mu.Lock()
		w.mu.Lock()
		logged := 0
		for _, sess := range w.state.Sessions {
			for _, r := range sess.Reqs {
				if !r.log.final() {
					logged = r.log.head()
				}
			}
		}
		if logged >= 3 {
			w.closed = true // nothing after this instant reaches the disk
		}
		w.mu.Unlock()
		b.mu.Unlock()
		if logged >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no kill window in 15s")
		}
	}
	ln1.Close()
	sys1.Kill()

	sys2, ln2 := serveWALSystem(t, opts, addr)
	defer ln2.Close()
	// The recovered request dispatches one attempt up, and its own dispatch
	// is journaled: the memo path would journal none for it.
	attempt := -1
	for deadline := time.Now().Add(15 * time.Second); attempt < 1 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		sys2.wal.mu.Lock()
		for _, sess := range sys2.wal.state.Sessions {
			for _, r := range sess.Reqs {
				attempt = r.Attempt
			}
		}
		sys2.wal.mu.Unlock()
	}
	if attempt != 1 {
		t.Fatalf("recovered request journaled attempt %d, want 1", attempt)
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
	if err := sys2.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ms := sys2.MemoStats(); ms.Hits+ms.Misses != 0 {
		t.Fatalf("restarted server's memo stats = %+v, want the recovered request off the memo path", ms)
	}
	direct := 0
	for _, st := range sys2.AllStats() {
		if st.Workers > 0 && !st.MemoHit && st.Subscribers == 0 {
			direct++
		}
	}
	if direct != 1 {
		t.Fatalf("restarted server ran %d direct extractions, want 1: %+v", direct, sys2.AllStats())
	}
}

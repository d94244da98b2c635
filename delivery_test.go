package viracocha

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/wal"
)

// The delivery path end to end, on the real clock over loopback TCP: what the
// benchmark's iso_slider_warm and shared_view_memo workloads send, as a test
// (the allocation guard CI runs) and as benchmarks `go test -bench Delivery
// -memprofile/-cpuprofile` can profile — `make profile-delivery` does.

// deliverySystem serves the benchmark's data set (engine, scale 3, two
// workers) and returns a connected client plus the warmed-up request: its
// blocks are resident, their indices built and, with memo on, its result
// cached, so every further run is the steady state.
func deliverySystem(tb testing.TB, memo bool) (*RemoteClient, map[string]string) {
	tb.Helper()
	sys := New(Options{Workers: 2, Prefetcher: "obl", Memo: memo})
	if _, err := sys.AddDataset("engine", 3); err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go sys.Serve(ln)
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		rc.Close()
		ln.Close()
		sys.Kill()
	})
	params := Params("dataset", "engine", "step", "0", "workers", "2", "iso", "500")
	for i := 0; i < 3; i++ {
		if _, err := rc.Run("iso.viewer", params, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return rc, params
}

// TestDeliveryAllocationGuard holds the whole path — extraction, encode,
// fabric, bridge, socket, client decode and merge — to four allocated bytes
// per byte delivered over a stream of some 47 partials. Three copies of a
// partial are left: the rank's encode, the client's decode of each part and
// the merge. The frame a client receives lands in its connection's reused
// buffer. The copies this budget has no room for (a fresh buffer per received
// frame, a re-encoded frame on the server, a merged mesh regrown partial
// after partial) cost one each or more.
func TestDeliveryAllocationGuard(t *testing.T) {
	rc, params := deliverySystem(t, false)
	const runs = 20
	var partials, delivered int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m, err := rc.Run("iso.viewer", params, func(int, *Mesh) { partials++ })
		if err != nil {
			t.Fatal(err)
		}
		delivered += m.SizeBytes()
	}
	runtime.ReadMemStats(&after)
	if partials/runs < 40 || delivered/runs < 1<<20 {
		t.Fatalf("%d partials and %d bytes per request: not the stream this guard is about", partials/runs, delivered/runs)
	}
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d partials, %.2f MB delivered, %.2f MB allocated per request (%.1f x)", partials/runs,
		float64(delivered)/runs/1e6, float64(allocated)/runs/1e6, float64(allocated)/float64(delivered))
	if allocated > 4*delivered {
		t.Errorf("allocated %d bytes to deliver %d: more than 4 x", allocated, delivered)
	}
}

// captureStream sends one command on rc's connection and returns its reply
// stream in arrival order, each payload cloned out of the connection's reused
// frame buffer. Every partial is acknowledged as RemoteClient.Run does, so
// the ranks stream under their usual credit.
func captureStream(tb testing.TB, rc *RemoteClient, command string, params map[string]string) []comm.Message {
	tb.Helper()
	rc.mu.Lock()
	rc.seq++
	reqID := rc.seq
	rc.mu.Unlock()
	if err := rc.send(comm.Message{Kind: "command", Command: command, ReqID: reqID, Params: params}); err != nil {
		tb.Fatal(err)
	}
	var stream []comm.Message
	for {
		m, ok := rc.recv()
		if !ok {
			tb.Fatal("connection lost mid-stream")
		}
		if m.ReqID != reqID {
			continue
		}
		if m.Kind == "partial" {
			ack := comm.Message{Kind: "ack", ReqID: reqID, Rank: m.Rank, SSeq: m.SSeq}
			if err := rc.send(ack); err != nil {
				tb.Fatal(err)
			}
		}
		m.Payload = bytes.Clone(m.Payload)
		stream = append(stream, m)
		switch m.Kind {
		case "result":
			return stream
		case "error":
			tb.Fatalf("%s failed: %s", command, m.Params["error"])
		}
	}
}

// TestRankPartialsArriveInSeqOrder: over TCP, with two workers and no
// faults, each rank's untagged partials reach the client in increasing seq —
// cold and warm, for the whole-data and the view-dependent iso.viewer. A
// client that relies on this could merge each rank's partials as they
// arrive instead of keeping them all for one sort at the end.
func TestRankPartialsArriveInSeqOrder(t *testing.T) {
	sys, ln := serveSystem(t, Options{Workers: 2}, "engine", 3)
	defer sys.Kill()
	defer ln.Close()
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	whole := Params("dataset", "engine", "step", "0", "workers", "2", "iso", "500")
	for _, params := range []map[string]string{whole, whole, plainParams(), plainParams()} {
		last := map[int]int{}
		partials := 0
		for _, m := range captureStream(t, rc, "iso.viewer", params) {
			if m.Kind != "partial" {
				continue
			}
			if m.Block.OK {
				t.Fatalf("a tagged partial in a stream without redistribute: block %d", m.Block.V)
			}
			rank := m.Rank.V
			if prev, ok := last[rank]; ok && m.Seq <= prev {
				t.Fatalf("rank %d: partial seq %d arrived after seq %d", rank, m.Seq, prev)
			}
			last[rank] = m.Seq
			partials++
		}
		if len(last) != 2 || partials < 4 {
			t.Fatalf("%d partials from %d ranks: not the two-rank stream this test is about", partials, len(last))
		}
	}
}

// TestWindowedStreamsLeaveNoGoroutines: a served system whose ranks stall on
// the viewer's credit returns to its goroutine count of before the requests
// within 100 ms of the last reply. A slow viewer (a millisecond per partial)
// under a one-packet window makes every rank park on almost every partial; a
// park must leave nothing running behind it, not even its slow-consumer
// deadline.
func TestWindowedStreamsLeaveNoGoroutines(t *testing.T) {
	ov := DefaultOverloadConfig()
	sys, ln := serveSystem(t, Options{Workers: 2, Overload: &ov}, "engine", 1)
	defer sys.Kill()
	defer ln.Close()
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	params := streamParams()
	if _, err := rc.Run("iso.viewer", params, nil); err != nil { // warm: blocks resident
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	params["stream_window"] = "1"
	slow := func(int, *Mesh) { time.Sleep(time.Millisecond) }
	for i := 0; i < 3; i++ {
		if _, err := rc.Run("iso.viewer", params, slow); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for deadline := time.Now().Add(100 * time.Millisecond); ; time.Sleep(time.Millisecond) {
		if n = runtime.NumGoroutine(); n <= baseline || time.Now().After(deadline) {
			break
		}
	}
	if n > baseline {
		t.Errorf("%d goroutines 100 ms after the last reply, %d before the windowed requests", n, baseline)
	}
}

var deliverySink *Mesh

func benchDelivery(b *testing.B, memo bool, extra ...string) {
	rc, params := deliverySystem(b, memo)
	for i := 0; i+1 < len(extra); i += 2 {
		params[extra[i]] = extra[i+1]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := rc.Run("iso.viewer", params, nil)
		if err != nil {
			b.Fatal(err)
		}
		deliverySink = m
	}
	b.StopTimer()
	b.SetBytes(deliverySink.SizeBytes())
}

// BenchmarkDeliveryLoopbackIso is one iso_slider_warm request: resident
// blocks, so kernel + encode + fabric + bridge + socket + client set the time.
func BenchmarkDeliveryLoopbackIso(b *testing.B) { benchDelivery(b, false) }

// BenchmarkDeliveryLoopbackIsoJournal is the same request in journal mode
// (redistribute=1): block-tagged partials, a span declaration and a
// watermark per block — what block-granular recovery for every request
// would cost.
func BenchmarkDeliveryLoopbackIsoJournal(b *testing.B) { benchDelivery(b, false, "redistribute", "1") }

// BenchmarkDeliveryLoopbackMemoHit is one shared_view_memo hit: no extraction,
// only the replay and the delivery of a cached stream.
func BenchmarkDeliveryLoopbackMemoHit(b *testing.B) { benchDelivery(b, true) }

// TestWALFrameRecordBytes: what the sink appends for a delivered frame —
// assembled from the frame's parts in the log's staging buffer — is on disk
// byte for byte the wframe record encoded whole around the frame encoded
// whole, which is how it was written before the parts existed.
func TestWALFrameRecordBytes(t *testing.T) {
	dir := t.TempDir()
	w := newWALSink(dir)
	if err := w.open(wal.PolicyOff, nil); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, payload := range [][]byte{bytes.Repeat([]byte{9}, 5000), nil, []byte("x")} {
		m := comm.Message{Kind: "partial", Command: "iso.viewer", ReqID: 7, Seq: i, Payload: payload,
			Rank: comm.Some(1), Attempt: comm.Some(0), Block: comm.Some(3), BSeq: comm.Some(0), SSeq: comm.Some(i + 1)}
		w.Frame("sess-1", 7, comm.NewFrame(m), false)
		want = append(want, comm.Encode(frameRecord("sess-1", 7, comm.Encode(m))))
	}
	w.kill() // no closing checkpoint: the records stay in their segment
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Errorf("record %d written from parts differs from the record encoded whole", i)
		}
	}
}

// TestRecoverWALWrittenByParent restarts on a WAL directory recorded by the
// commit before the frame was split (cd6bec1: a durable iso.viewer stream
// hard-killed mid-run under fsync always — session sess-1, epoch 0, request 1,
// six retained frames, two journal marks). The formats did not change, so the
// session comes back, the request is re-admitted for its unfinished blocks
// only, and a client resuming from nothing is replayed and streamed the
// byte-identical mesh.
func TestRecoverWALWrittenByParent(t *testing.T) {
	ref := referenceMesh(t)
	dir := t.TempDir()
	fixture := filepath.Join("testdata", "wal-cd6bec1")
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sys, ln := serveWALSystem(t, Options{Workers: 2, SessionLease: 20 * time.Second, WALDir: dir, WALFsync: "always"}, "")
	defer ln.Close()
	if n := sys.SessionCount(); n != 1 {
		t.Fatalf("recovered session count = %d, want 1", n)
	}
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rc.Resume, rc.sessionID, rc.epoch = true, "sess-1", 0
	if err := rc.handshake(map[uint64]int{1: 0}); err != nil {
		t.Fatalf("resume of the recorded session: %v", err)
	}
	m, err := rc.runOnce("iso.viewer", streamParams(), nil) // request 1 again: the server knows it
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.EncodeBinary(), ref) {
		t.Fatalf("mesh resumed from the parent's WAL differs from a crash-free run (%d triangles)", m.NumTriangles())
	}
	d := sys.Runtime.Datasets["engine"]
	if n := blocksRecomputed(t, sys); n <= 0 || n >= d.Blocks {
		t.Fatalf("BlocksRecomputed = %d, want in (0, %d): two blocks were journaled done before the kill", n, d.Blocks)
	}
}

// TestKilledSystemIsCollectable: once a served system is torn down nothing of
// the bridge keeps it reachable. The lease sweeper used to notice only at its
// next tick (a quarter of the lease, 7.5 s by default), so a benchmark that set
// up the next system sooner measured the previous one's blocks as live heap.
func TestKilledSystemIsCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		// The sentinel hangs off the system and points at nothing: a finalizer
		// on the system itself, which is in a cycle with its bridge, never runs.
		held := DefaultOverloadConfig()
		runtime.SetFinalizer(&held, func(*OverloadConfig) { close(freed) })
		sys, ln := serveSystem(t, Options{Workers: 2, Overload: &held}, "tiny", 1)
		rc, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Run("iso.dataman", Params("dataset", "tiny", "iso", "0.5", "workers", "2"), nil); err != nil {
			t.Fatal(err)
		}
		rc.Close()
		ln.Close()
		sys.Kill()
	}()
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a killed system is still reachable 3 s later")
		}
	}
}

package viracocha

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dataset"
	"viracocha/internal/wal"
)

// stampedFrame builds a durable frame the way deliver stamps one.
func stampedFrame(kind string, sseq, block, attempt int, final bool) logFrame {
	m := comm.Message{Kind: kind, ReqID: 7, Seq: sseq, Final: final, Params: Params(
		"sseq", strconv.Itoa(sseq), "attempt", strconv.Itoa(attempt), "rank", "0")}
	if block >= 0 {
		m.Params["block"] = strconv.Itoa(block)
	}
	m.Payload = bytes.Repeat([]byte{byte(sseq)}, 64)
	return newLogFrame(m, comm.Encode(m))
}

// loadedSink replays a checkpoint plus tail records into a fresh sink.
func loadedSink(checkpoint []byte, tail ...comm.Message) *walSink {
	w := newWALSink("")
	rec := &wal.Recovered{Checkpoint: checkpoint}
	for _, m := range tail {
		rec.Records = append(rec.Records, comm.Encode(m))
	}
	w.load(rec)
	return w
}

// TestCheckpointRoundTripsTrimmedLog drives a sink through its live hooks,
// trims acknowledged frames off the shared log, and verifies a checkpoint
// rebuilds exactly that state — including what the retained frames alone
// cannot: the head, and the per-block counts of frames trimmed since.
func TestCheckpointRoundTripsTrimmedLog(t *testing.T) {
	w := newWALSink("")
	w.LeaseIssue("sess-3", 0, "tcp-bridge1/s2")
	w.LeaseResume("sess-3", 1)
	log := &streamLog{}
	w.Admit("sess-3", 7, 11, comm.Message{Kind: "command", Command: "iso.viewer", ReqID: 7}, log)
	w.Dispatch(11, 1, 2)
	w.JournalSpan(11, 1, 0, []int{0, 2})
	w.JournalSpan(11, 1, 1, []int{1, 3})
	var tail []comm.Message
	for sseq, block := range []int{0, 0, 1, 2} { // block 0 streams two frames
		f := stampedFrame("partial", sseq+1, block, 1, false)
		log.append(f)
		tail = append(tail, frameRecord("sess-3", 7, f.wire))
	}
	w.JournalMark(11, 1, 0, 0, 2)
	w.JournalMark(11, 1, 1, 1, 1)
	log.trim(3) // the client acknowledged blocks 0 and 1

	w.mu.Lock()
	recs := w.checkpointRecordsLocked()
	w.mu.Unlock()
	frames := 0
	for _, m := range recs {
		if m.Kind == "wframe" {
			frames++
		}
	}
	if frames != 1 {
		t.Fatalf("checkpoint holds %d frames, want 1: three of four were acknowledged", frames)
	}

	// Recovery replays pre-checkpoint records on top of the checkpoint when a
	// crash lands between the rename and the prune: nothing trimmed may come
	// back and no block may be counted twice.
	for name, replay := range map[string][]comm.Message{"checkpoint": nil, "checkpoint+stale tail": tail} {
		got := loadedSink(comm.EncodeBatch(recs), replay...)
		sess := got.state.Sessions["sess-3"]
		if sess == nil || sess.Epoch != 1 || sess.Admission != "tcp-bridge1/s2" || got.state.Counter != 3 {
			t.Fatalf("%s: session = %+v, counter %d", name, sess, got.state.Counter)
		}
		r := sess.Reqs[7]
		if r == nil || got.byRuntime[11] != r || r.Attempt != 1 || r.Want != 2 ||
			!reflect.DeepEqual(r.Done, map[int]int{0: 2, 1: 1}) || len(r.Spans) != 2 {
			t.Fatalf("%s: request = %+v", name, r)
		}
		if r.log.head() != 4 || r.log.final() || len(r.log.frames) != 1 || r.log.frames[0].sseq != 4 {
			t.Fatalf("%s: log head %d, %d frames retained", name, r.log.head(), len(r.log.frames))
		}
		if !bytes.Equal(r.log.frames[0].wire, log.frames[0].wire) || r.log.frames[0].block != 2 {
			t.Fatalf("%s: retained frame differs from the one logged", name)
		}
		if want := map[int]int{0: 2, 1: 1, 2: 1}; !reflect.DeepEqual(r.log.loggedUnder(1), want) {
			t.Fatalf("%s: logged counts = %v, want %v", name, r.log.loggedUnder(1), want)
		}
		// Blocks 0 and 1 are proven delivered although their frames are gone;
		// 2 was logged but never journaled done; 3 never streamed.
		if miss, ok := unfinishedSpan(r); !ok || !reflect.DeepEqual(miss, []int{2, 3}) {
			t.Fatalf("%s: unfinished span = %v (trusted %v), want [2 3]", name, miss, ok)
		}
	}
}

// TestCheckpointIgnoresMemoRecords: a checkpoint and a tail written by a
// server that still logged memo results — a wmemo record after the sessions
// in the checkpoint, wmemo and wmemoinval records in the tail — load without
// a warning into exactly the sessions and requests the same records rebuild
// without them.
func TestCheckpointIgnoresMemoRecords(t *testing.T) {
	memo := comm.Message{Kind: "wmemo", Params: Params(
		"key", "iso.viewer|dataset=engine|iso=500", "dataset", "engine", "step", "4",
	), Payload: comm.EncodeBatch([]comm.Message{{Kind: "partial", Payload: []byte("memo")}})}
	inval := comm.Message{Kind: "wmemoinval", Params: Params("dataset", "engine", "step", "-1")}
	f := stampedFrame("partial", 1, 0, 1, false)
	checkpoint := []comm.Message{
		{Kind: "wcheckpoint", Params: Params("counter", "3")},
		leaseRecord("issue", "sess-3", 1, "tcp-bridge1/s2"),
		admitRecord("sess-3", 7, 11, comm.Encode(comm.Message{Kind: "command", Command: "iso.viewer", ReqID: 7})),
		dispatchRecord(11, 1, 2),
		spanRecord(11, 1, 0, []int{0, 2}),
		spanRecord(11, 1, 1, []int{1, 3}),
		markRecord(11, 1, 0, 1),
		frameRecord("sess-3", 7, f.wire),
		{Kind: "wstream", ReqID: 7, Params: Params("sess", "sess-3", "sseq", "1",
			"final", "0", "attempt", "1", "blocks", "0", "counts", "1")},
	}
	tail := []comm.Message{markRecord(11, 1, 1, 1), frameRecord("sess-3", 7, stampedFrame("partial", 2, 1, 1, false).wire)}
	load := func(checkpoint, tail []comm.Message) *walSink {
		w := newWALSink("")
		w.warn = func(format string, args ...any) { t.Errorf("load warned: "+format, args...) }
		rec := &wal.Recovered{Checkpoint: comm.EncodeBatch(checkpoint)}
		for _, m := range tail {
			rec.Records = append(rec.Records, comm.Encode(m))
		}
		w.load(rec)
		return w
	}
	want := load(checkpoint, tail)
	got := load(append(append([]comm.Message{}, checkpoint...), memo),
		[]comm.Message{memo, tail[0], inval, tail[1], memo})
	if len(want.state.Sessions) != 1 || want.byRuntime[11] == nil || want.byRuntime[11].log.head() != 2 {
		t.Fatalf("reference load = %+v: the fixture rebuilds nothing to compare", want.state)
	}
	if !reflect.DeepEqual(got.state, want.state) || !reflect.DeepEqual(got.byRuntime, want.byRuntime) {
		t.Fatalf("memo records changed the recovered state:\ngot  %+v\nwant %+v", got.state, want.state)
	}
}

// checkpointRequest is a CRC-valid checkpoint of one session with one request
// whose stream-log records carry the given (possibly hostile) fields.
func checkpointRequest(counter, sseq, attempt, blocks, counts string, cmd, wire []byte) []byte {
	return comm.EncodeBatch([]comm.Message{
		{Kind: "wcheckpoint", Params: Params("counter", counter)},
		leaseRecord("issue", "sess-1", 0, "a"),
		admitRecord("sess-1", 1, 5, cmd),
		dispatchRecord(5, 0, 1),
		spanRecord(5, 0, 0, []int{0, 1}),
		markRecord(5, 0, 0, 1),
		frameRecord("sess-1", 1, wire),
		{Kind: "wstream", ReqID: 1, Params: Params("sess", "sess-1", "sseq", sseq,
			"final", "0", "attempt", attempt, "blocks", blocks, "counts", counts)},
	})
}

// recoverState runs what recovery runs on a loaded sink's requests.
func recoverState(w *walSink) {
	for sid, sess := range w.state.Sessions {
		for cr, r := range sess.Reqs {
			unfinishedSpan(r)
			r.log.skip(walSseqGap)
			r.log.after(0)
			r.log.records(sid, cr)
		}
	}
}

// TestCheckpointRejectsMalformed feeds the checkpoint reader damaged disk
// input: bytes that are no record batch are refused whole, and records whose
// framing is intact but whose fields are nonsense must not panic or invent
// delivery proofs.
func TestCheckpointRejectsMalformed(t *testing.T) {
	good := stampedFrame("partial", 1, 0, 0, false).wire
	valid := checkpointRequest("1", "1", "0", "0", "1", comm.Encode(comm.Message{Kind: "command"}), good)
	for name, data := range map[string][]byte{
		"empty":           {},
		"garbage":         []byte("{not a record batch"),
		"truncated":       valid[:len(valid)/2],
		"flipped bit":     append(append([]byte{}, valid[:40]...), append([]byte{valid[40] ^ 1}, valid[41:]...)...),
		"headerless":      comm.EncodeBatch([]comm.Message{leaseRecord("issue", "sess-1", 0, "a")}),
		"oversize length": {0xff, 0xff, 0xff, 0x7f, 1, 2, 3},
	} {
		var warned bool
		w := newWALSink("")
		w.warn = func(string, ...any) { warned = true }
		w.load(&wal.Recovered{Checkpoint: data})
		if !warned || len(w.state.Sessions) != 0 {
			t.Errorf("%s: accepted (%d sessions, warned %v)", name, len(w.state.Sessions), warned)
		}
	}
	for name, data := range map[string][]byte{
		"list mismatch":   checkpointRequest("1", "1", "0", "0,1,2", "1", nil, good),
		"non-numeric":     checkpointRequest("x", "y", "z", "a,b", "c,d", []byte("junk"), good),
		"negative":        checkpointRequest("-1", "-5", "-2", "-1,-2", "-3,-4", nil, good),
		"frame not wire":  checkpointRequest("1", "1", "0", "0", "1", nil, []byte("junk")),
		"frame is nil":    checkpointRequest("1", "1", "0", "0", "1", nil, nil),
		"overflowing int": checkpointRequest("99999999999999999999999", "99999999999999999999999", "0", "0", "99999999999999999999999", nil, good),
	} {
		w := loadedSink(data)
		recoverState(w)
		r := w.state.Sessions["sess-1"].Reqs[1]
		if miss, ok := unfinishedSpan(r); ok && len(miss) == 0 {
			t.Errorf("%s: block 1 was never journaled, yet nothing is left to recompute", name)
		}
	}
	// A damaged count list proves nothing: block 0 stays to be recomputed.
	w := loadedSink(checkpointRequest("1", "9", "0", "0,1", "1", nil, nil))
	if miss, _ := unfinishedSpan(w.state.Sessions["sess-1"].Reqs[1]); !reflect.DeepEqual(miss, []int{0, 1}) {
		t.Errorf("mismatched block/count lists were trusted: unfinished = %v", miss)
	}
}

// TestGatheredSpanRecordPlansNoRecovery: WALs of older servers hold wspan
// records with streamed=0 from gathered commands, whose completed items died
// with the process. Such a span and its marks yield no recovery plan, so the
// request restarts whole; the same records without the flag are trusted.
func TestGatheredSpanRecordPlansNoRecovery(t *testing.T) {
	records := func(streamed string) []byte {
		span := spanRecord(5, 0, 0, []int{0, 1})
		if streamed != "" {
			span.Params["streamed"] = streamed
		}
		return comm.EncodeBatch([]comm.Message{
			{Kind: "wcheckpoint", Params: Params("counter", "1")},
			leaseRecord("issue", "sess-1", 0, "a"),
			admitRecord("sess-1", 1, 5, nil),
			dispatchRecord(5, 0, 1),
			span,
			markRecord(5, 0, 0, 0),
			markRecord(5, 0, 1, 0),
		})
	}
	for _, streamed := range []string{"0", "1", ""} {
		w := loadedSink(records(streamed))
		miss, ok := unfinishedSpan(w.state.Sessions["sess-1"].Reqs[1])
		if want := streamed != "0"; ok != want || len(miss) != 0 {
			t.Errorf("streamed=%q: plan %v (trusted %v), want trusted %v with nothing to recompute", streamed, miss, ok, want)
		}
	}
}

// FuzzCheckpointLoad throws raw bytes, and CRC-valid records with fuzzed
// fields, at the checkpoint reader and the recovery steps that consume its
// result: disk input is rejected or absorbed, never a panic.
func FuzzCheckpointLoad(f *testing.F) {
	good := stampedFrame("partial", 1, 0, 0, false).wire
	f.Add([]byte{}, "1", "1", "0", "0", "1", good)
	f.Add(checkpointRequest("1", "1", "0", "0", "1", nil, good), "2", "7", "1", "0,1", "2,2", good)
	f.Add([]byte("{\"counter\":1}"), "x", "-1", "", ",,", "1,,2", []byte("junk"))
	f.Fuzz(func(t *testing.T, raw []byte, counter, sseq, attempt, blocks, counts string, wire []byte) {
		recoverState(loadedSink(raw))
		recoverState(loadedSink(checkpointRequest(counter, sseq, attempt, blocks, counts, wire, wire)))
	})
}

// streamProgress reports, over every durable request, how many frames the
// bridge has stamped and how many of them its stream logs still retain.
func streamProgress(sys *System) (stamped, retained int) {
	b := sys.bridge()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sess := range b.sessions {
		for _, lr := range sess.reqs {
			stamped += lr.log.head()
			retained += len(lr.log.after(0))
		}
	}
	return stamped, retained
}

// TestCheckpointAfterAcksThenHardKill: the client has acknowledged k of the n
// partials streamed so far when a checkpoint is cut and the server is killed.
// The checkpoint must hold at most n-k frames — acknowledged frames are
// trimmed from the one log both the bridge and the WAL use — and recovery from
// it must still know the trimmed blocks were delivered: only the unfinished
// blocks are recomputed and the merged mesh is byte-identical.
func TestCheckpointAfterAcksThenHardKill(t *testing.T) {
	ref := referenceMesh(t)
	opts := Options{
		Workers:        2,
		SessionLease:   20 * time.Second,
		WALDir:         t.TempDir(),
		WALFsync:       "always",
		StorageLatency: 4 * time.Millisecond,
	}
	sys1, ln1 := serveWALSystem(t, opts, "")
	addr := ln1.Addr().String()
	rc, err := DialResume(addr, 200, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	done := startStreamRun(rc)

	acked := 0
	for deadline := time.Now().Add(15 * time.Second); acked < 2; {
		stamped, retained := streamProgress(sys1)
		if acked = stamped - retained; time.Now().After(deadline) {
			t.Fatalf("client acknowledged only %d frames in 15s", acked)
		}
		time.Sleep(time.Millisecond)
	}
	killInWindow(t, sys1, ln1, done, 2, true, func(w *walSink) { err = w.checkpointLocked() })
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	rec, err := wal.Recover(opts.WALDir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := comm.DecodeBatch(rec.Checkpoint)
	if err != nil {
		t.Fatalf("checkpoint is not a record batch: %v", err)
	}
	frames, stamped := 0, 0
	for _, m := range recs {
		switch m.Kind {
		case "wframe":
			frames++
		case "wstream":
			stamped += m.IntParam("sseq", 0)
		}
	}
	if frames > stamped-acked {
		t.Fatalf("checkpoint holds %d frames of %d stamped with %d acknowledged: acked frames were not trimmed", frames, stamped, acked)
	}

	sys2, ln2 := serveWALSystem(t, opts, addr)
	defer ln2.Close()
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
		t.Fatalf("mesh after checkpoint + hard kill differs from crash-free run (%d triangles)", out.m.NumTriangles())
	}
	d, err := dataset.ByName("engine")
	if err != nil {
		t.Fatal(err)
	}
	total := d.WithScale(1).Blocks
	recomputed := blocksRecomputed(t, sys2)
	if recomputed <= 0 || recomputed >= total {
		t.Fatalf("BlocksRecomputed = %d, want in (0, %d): trimmed blocks must still count as delivered", recomputed, total)
	}
}

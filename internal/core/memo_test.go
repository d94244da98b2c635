package core

import (
	"bytes"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dms"
	"viracocha/internal/faults"
	"viracocha/internal/grid"
	"viracocha/internal/vclock"
)

// memoCfg turns result memoization on for a test runtime.
func memoCfg(cfg *Config) { cfg.Memo = true }

// spanParams is the canonical journaled streaming request of the memo tests:
// block-tagged packets, so replay-to-joiner is exact.
func spanParams() map[string]string {
	return map[string]string{
		"dataset": "tiny", "workers": "4", "items": "8", "redistribute": "1",
	}
}

// producerRecords filters AllStats down to records that ran a real
// extraction (the direct path, or a memo producer).
func producerRecords(rt *Runtime) []RequestStats {
	var out []RequestStats
	for _, st := range rt.Sched.AllStats() {
		if st.Workers > 0 {
			out = append(out, st)
		}
	}
	return out
}

// TestMemoKeyCanonical pins the canonical request key: result-shaping
// parameters in sorted order with float normalization; transport parameters
// excluded.
func TestMemoKeyCanonical(t *testing.T) {
	keyOf := func(m comm.Message) string {
		return parseRequest(m, &Config{Memo: true}).MemoKey
	}
	base := comm.Message{Command: "iso.dataman", Params: map[string]string{
		"dataset": "engine", "step": "3", "iso": "0.5",
	}}
	kBase := keyOf(base)
	if want := "iso.dataman|dataset=engine|iso=0.5|step=3"; kBase != want {
		t.Fatalf("key = %q, want %q", kBase, want)
	}

	same := []map[string]string{
		// Numerically equal spellings of the isovalue.
		{"dataset": "engine", "step": "3", "iso": "0.50"},
		{"dataset": "engine", "step": "3", "iso": "5e-1"},
		{"dataset": "engine", "step": "03", "iso": ".5"},
		// Transport- and identity-shaping parameters are excluded.
		{"dataset": "engine", "step": "3", "iso": "0.5", "client": "client7",
			"session": "client7", "memo": "1", "stream_window": "4"},
	}
	for _, p := range same {
		if k := keyOf(comm.Message{Command: "iso.dataman", Params: p}); k != kBase {
			t.Errorf("params %v: key %q, want %q", p, k, kBase)
		}
	}

	diff := []map[string]string{
		{"dataset": "engine", "step": "3", "iso": "0.51"},
		{"dataset": "engine", "step": "4", "iso": "0.5"},
		{"dataset": "propfan", "step": "3", "iso": "0.5"},
		{"dataset": "engine", "step": "3", "iso": "0.5", "index": "1"},
	}
	for _, p := range diff {
		if k := keyOf(comm.Message{Command: "iso.dataman", Params: p}); k == kBase {
			t.Errorf("params %v: key collided with %q", p, kBase)
		}
	}
	if k := keyOf(comm.Message{Command: "iso.simple", Params: base.Params}); k == kBase {
		t.Error("different command collided")
	}
}

// TestMemoWarmRepeat: a repeated identical request is served entirely from
// the result cache — zero extraction work, byte-identical mesh, MemoHit
// stamped on its record.
func TestMemoWarmRepeat(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, memoCfg)
	var res1, res2 *RunResult
	var err1, err2 error
	var between time.Duration
	v.Go(func() {
		cl := NewClient(rt)
		res1, err1 = cl.Run("test.spanstream", spanParams())
		between = v.Now()
		res2, err2 = cl.Run("test.spanstream", spanParams())
		rt.Shutdown()
	})
	v.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v, %v", err1, err2)
	}
	if !bytes.Equal(res1.Merged.EncodeBinary(), res2.Merged.EncodeBinary()) {
		t.Fatal("warm repeat mesh not byte-identical to the original")
	}
	ms := rt.Sched.MemoStats()
	if ms.Misses != 1 || ms.Hits != 1 {
		t.Fatalf("memo stats = %+v, want Misses=1 Hits=1", ms)
	}
	if ms.Entries != 1 || ms.BytesCached <= 0 {
		t.Fatalf("memo stats = %+v, want one resident entry with bytes", ms)
	}
	if prods := producerRecords(rt); len(prods) != 1 {
		t.Fatalf("extractions ran = %d, want 1 (repeat served from cache)", len(prods))
	}
	st2, ok := rt.Sched.Stats(res2.ReqID)
	if !ok || !st2.MemoHit {
		t.Fatalf("repeat stats = %+v (ok=%v), want MemoHit", st2, ok)
	}
	if st2.Probes.Compute != 0 {
		t.Fatalf("repeat charged %v compute, want 0", st2.Probes.Compute)
	}
	if st2.Streams != res2.Partials || res2.Partials != 8 {
		t.Fatalf("repeat streams=%d partials=%d, want 8 replayed packets", st2.Streams, res2.Partials)
	}
	// The replay moves only fabric time: far less than the 2s extraction.
	if replay := res2.FinalAt - between; replay > time.Second {
		t.Fatalf("warm replay took %v of virtual time, want ≪ extraction time", replay)
	}
}

// TestMemoInFlightAttach: a second identical request arriving mid-extraction
// attaches as a subscriber instead of dispatching — one extraction, two
// byte-identical deliveries.
func TestMemoInFlightAttach(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, memoCfg)
	var resA, resB *RunResult
	var errA, errB error
	var remaining atomic.Int32
	remaining.Store(2)
	finish := func() {
		if remaining.Add(-1) == 0 {
			rt.Shutdown()
		}
	}
	v.Go(func() {
		clA := NewClient(rt)
		clB := NewClient(rt)
		v.Go(func() {
			resA, errA = clA.Run("test.spanstream", spanParams())
			finish()
		})
		v.Go(func() {
			// Join mid-extraction: rank spans are 2 items × 1s, so at 1.2s
			// some blocks are already flushed (journal replay) and some are
			// still to come (live multicast).
			v.Sleep(1200 * time.Millisecond)
			resB, errB = clB.Run("test.spanstream", spanParams())
			finish()
		})
	})
	v.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: A=%v B=%v", errA, errB)
	}
	if !bytes.Equal(resA.Merged.EncodeBinary(), resB.Merged.EncodeBinary()) {
		t.Fatal("joiner mesh not byte-identical to the original requester's")
	}
	if resB.Partials != 8 {
		t.Fatalf("joiner partials = %d, want all 8 (replayed prefix + live tail)", resB.Partials)
	}
	ms := rt.Sched.MemoStats()
	if ms.Misses != 1 || ms.Hits != 1 {
		t.Fatalf("memo stats = %+v, want Misses=1 Hits=1", ms)
	}
	prods := producerRecords(rt)
	if len(prods) != 1 {
		t.Fatalf("extractions ran = %d, want 1", len(prods))
	}
	if prods[0].Subscribers != 2 {
		t.Fatalf("producer Subscribers = %d, want 2", prods[0].Subscribers)
	}
	stB, _ := rt.Sched.Stats(resB.ReqID)
	if !stB.MemoHit || stB.Subscribers != 2 {
		t.Fatalf("joiner stats = %+v, want MemoHit and Subscribers=2", stB)
	}
	if rt.Trace.CountMatching("attached to in-flight") == 0 {
		t.Fatal("trace records no in-flight attachment")
	}
}

// TestMemoLeavesNoEndpoints: misses, in-flight attaches and hits leave the
// fabric with the endpoints it had before them. Forwarders share one
// endpoint; each producer's relay leaves when its stream ends.
func TestMemoLeavesNoEndpoints(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, memoCfg)
	var before, after int
	v.Go(func() {
		cl := NewClient(rt)
		before = rt.Net.Stats().Endpoints
		other := spanParams()
		other["items"] = "4"
		// A miss with a twin attached while it runs, then a second miss.
		a, errA := cl.Submit("test.spanstream", spanParams())
		b, errB := cl.Submit("test.spanstream", spanParams())
		c, errC := cl.Submit("test.spanstream", other)
		for _, id := range []uint64{a, b, c} {
			if _, err := cl.Collect(id); err != nil {
				t.Error(err)
			}
		}
		// A hit on each key: its result is stored only after its relay left.
		for _, p := range []map[string]string{spanParams(), other} {
			if _, err := cl.Run("test.spanstream", p); err != nil {
				t.Error(err)
			}
		}
		if errA != nil || errB != nil || errC != nil {
			t.Error(errA, errB, errC)
		}
		after = rt.Net.Stats().Endpoints
		rt.Shutdown()
	})
	v.Wait()
	if ms := rt.Sched.MemoStats(); ms.Misses != 2 || ms.Hits != 3 {
		t.Fatalf("memo stats = %+v, want Misses=2 Hits=3", ms)
	}
	if rt.Trace.CountMatching("attached to in-flight") != 1 {
		t.Fatal("the twin did not attach to the in-flight extraction")
	}
	if after != before {
		t.Fatalf("fabric holds %d endpoints after the memo requests, %d before", after, before)
	}
}

// TestMemoLateJoinAcrossCrash is the replay-to-joiner acceptance scenario
// under faults: rank 2 crashes mid-extraction, its unfinished blocks are
// redistributed (PR 5), and a subscriber who joined before the crash still
// receives a mesh byte-identical to a fault-free run's.
func TestMemoLateJoinAcrossCrash(t *testing.T) {
	// Fault-free reference, memo off: the direct path's canonical mesh.
	ref, rerr, _, _, _ := runSpanScenario(t, 4, nil, nil, "test.spanstream",
		map[string]string{"workers": "4", "items": "8"})
	if rerr != nil {
		t.Fatalf("reference run failed: %v", rerr)
	}

	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 7}).CrashAt("w2", 1530*time.Millisecond)
	rt := newFaultRuntime(t, v, 4, plan, memoCfg)
	var resA, resB *RunResult
	var errA, errB error
	var remaining atomic.Int32
	remaining.Store(2)
	finish := func() {
		if remaining.Add(-1) == 0 {
			rt.Shutdown()
		}
	}
	v.Go(func() {
		clA := NewClient(rt)
		clB := NewClient(rt)
		v.Go(func() {
			resA, errA = clA.Run("test.spanstream", spanParams())
			finish()
		})
		v.Go(func() {
			// Join at 1s: after the first blocks flushed, before the 1.53s
			// crash — the joiner's stream spans the redistribution.
			v.Sleep(time.Second)
			resB, errB = clB.Run("test.spanstream", spanParams())
			finish()
		})
	})
	v.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: A=%v B=%v", errA, errB)
	}
	for who, res := range map[string]*RunResult{"original": resA, "joiner": resB} {
		if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
			t.Fatalf("%s mesh not byte-identical to fault-free direct run", who)
		}
	}
	prods := producerRecords(rt)
	if len(prods) != 1 || prods[0].Redistributions != 1 {
		t.Fatalf("producer records = %+v, want one with Redistributions=1", prods)
	}
}

// TestMemoOffByDefault: without Config.Memo (and without a "memo" request
// parameter) every request extracts independently and no memo state moves.
func TestMemoOffByDefault(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, nil)
	var res1, res2 *RunResult
	var err1, err2 error
	v.Go(func() {
		cl := NewClient(rt)
		res1, err1 = cl.Run("test.spanstream", spanParams())
		res2, err2 = cl.Run("test.spanstream", spanParams())
		rt.Shutdown()
	})
	v.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v, %v", err1, err2)
	}
	ms := rt.Sched.MemoStats()
	if ms.Hits != 0 || ms.Misses != 0 || ms.Entries != 0 {
		t.Fatalf("memo state moved on the default path: %+v", ms)
	}
	if prods := producerRecords(rt); len(prods) != 2 {
		t.Fatalf("extractions ran = %d, want 2 independent", len(prods))
	}
	st1, _ := rt.Sched.Stats(res1.ReqID)
	if st1.MemoHit || st1.Subscribers != 0 {
		t.Fatalf("direct-path stats carry memo fields: %+v", st1)
	}
	if !bytes.Equal(res1.Merged.EncodeBinary(), res2.Merged.EncodeBinary()) {
		t.Fatal("independent runs diverged")
	}
}

// TestMemoPerRequestOverride: the "memo" parameter flips the path per
// request in both directions.
func TestMemoPerRequestOverride(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, nil) // server default off
	var err1, err2, err3 error
	v.Go(func() {
		cl := NewClient(rt)
		p := spanParams()
		p["memo"] = "1"
		_, err1 = cl.Run("test.spanstream", p)
		_, err2 = cl.Run("test.spanstream", p)
		_, err3 = cl.Run("test.spanstream", spanParams()) // memo off: direct
		rt.Shutdown()
	})
	v.Wait()
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatalf("runs failed: %v, %v, %v", err1, err2, err3)
	}
	ms := rt.Sched.MemoStats()
	if ms.Misses != 1 || ms.Hits != 1 {
		t.Fatalf("memo stats = %+v, want Misses=1 Hits=1 (third run direct)", ms)
	}
	if prods := producerRecords(rt); len(prods) != 2 {
		t.Fatalf("extractions ran = %d, want 2 (producer + direct)", len(prods))
	}
}

// TestMemoSlowSubscriberDoesNotStall: one viewer consuming at a crawl delays
// only itself — the producer and the fast co-subscriber finish on the
// extraction's own schedule.
func TestMemoSlowSubscriberDoesNotStall(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 1}).SlowConsumer("client2", 400*time.Millisecond)
	rt := newFaultRuntime(t, v, 2, plan, func(cfg *Config) {
		cfg.Memo = true
		cfg.Overload.StreamWindow = 2 // small credit window: pacing is real
	})
	params := map[string]string{
		"dataset": "tiny", "workers": "2", "items": "6", "redistribute": "1",
	}
	var resFast, resSlow *RunResult
	var errFast, errSlow error
	var remaining atomic.Int32
	remaining.Store(2)
	finish := func() {
		if remaining.Add(-1) == 0 {
			rt.Shutdown()
		}
	}
	v.Go(func() {
		clFast := NewClient(rt) // client1
		clSlow := NewClient(rt) // client2: 400ms per-packet consumption
		v.Go(func() {
			resFast, errFast = clFast.Run("test.spanstream", params)
			finish()
		})
		v.Go(func() {
			v.Sleep(100 * time.Millisecond)
			resSlow, errSlow = clSlow.Run("test.spanstream", params)
			finish()
		})
	})
	v.Wait()
	if errFast != nil || errSlow != nil {
		t.Fatalf("runs failed: fast=%v slow=%v", errFast, errSlow)
	}
	if !bytes.Equal(resFast.Merged.EncodeBinary(), resSlow.Merged.EncodeBinary()) {
		t.Fatal("slow subscriber's mesh differs from the fast one's")
	}
	prods := producerRecords(rt)
	if len(prods) != 1 {
		t.Fatalf("extractions ran = %d, want 1", len(prods))
	}
	// The producer ends on the extraction's schedule (~3s of span compute),
	// not the slow viewer's (~6×400ms of consumption on top).
	if prods[0].End >= resSlow.FinalAt {
		t.Fatalf("producer end %v not before slow subscriber's final %v", prods[0].End, resSlow.FinalAt)
	}
	if resSlow.FinalAt-resFast.FinalAt < 500*time.Millisecond {
		t.Fatalf("slow subscriber finished at %v, fast at %v: pacing was not independent",
			resSlow.FinalAt, resFast.FinalAt)
	}
}

// TestMemoCancelSubscriber: cancelling one subscriber cuts off only its
// stream; the co-subscriber and the shared extraction are untouched. When
// the *last* subscriber cancels, the producer itself is abandoned.
func TestMemoCancelSubscriber(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, memoCfg)
	var resA, resB *RunResult
	var errA, errB error
	var remaining atomic.Int32
	remaining.Store(2)
	finish := func() {
		if remaining.Add(-1) == 0 {
			rt.Shutdown()
		}
	}
	v.Go(func() {
		clA := NewClient(rt)
		clB := NewClient(rt)
		v.Go(func() {
			resA, errA = clA.Run("test.spanstream", spanParams())
			finish()
		})
		v.Go(func() {
			v.Sleep(500 * time.Millisecond)
			reqID, serr := clB.Submit("test.spanstream", spanParams())
			if serr != nil {
				errB = serr
				finish()
				return
			}
			v.Sleep(300 * time.Millisecond)
			clB.Cancel(reqID)
			resB, errB = clB.Collect(reqID)
			finish()
		})
	})
	v.Wait()
	if errA != nil {
		t.Fatalf("surviving subscriber failed: %v", errA)
	}
	if errB == nil {
		t.Fatal("cancelled subscriber reported success")
	}
	_ = resB
	if resA.Partials != 8 {
		t.Fatalf("survivor partials = %d, want 8", resA.Partials)
	}
	if prods := producerRecords(rt); len(prods) != 1 {
		t.Fatalf("extractions ran = %d, want 1 (producer survived the cancel)", len(prods))
	}
	ms := rt.Sched.MemoStats()
	if ms.LiveSubscribers != 0 || ms.InFlight != 0 {
		t.Fatalf("memo state not drained: %+v", ms)
	}
	if ms.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (result still cached for future hits)", ms.Entries)
	}
	stB, ok := rt.Sched.Stats(resB.ReqID)
	if !ok || stB.Errors == 0 {
		t.Fatalf("cancelled subscriber record = %+v (ok=%v), want an error mark", stB, ok)
	}
}

// TestMemoLastSubscriberCancelAbandonsProducer: with nobody left to receive
// the stream the extraction itself is cancelled and nothing is cached.
func TestMemoLastSubscriberCancelAbandonsProducer(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, memoCfg)
	var errA error
	v.Go(func() {
		cl := NewClient(rt)
		reqID, serr := cl.Submit("test.spanstream", spanParams())
		if serr != nil {
			errA = serr
			rt.Shutdown()
			return
		}
		v.Sleep(500 * time.Millisecond)
		cl.Cancel(reqID)
		_, errA = cl.Collect(reqID)
		rt.Shutdown()
	})
	v.Wait()
	if errA == nil {
		t.Fatal("cancelled request reported success")
	}
	ms := rt.Sched.MemoStats()
	if ms.Entries != 0 {
		t.Fatalf("abandoned extraction was cached: %+v", ms)
	}
	if rt.Trace.CountMatching("all subscribers gone") == 0 {
		t.Fatal("trace records no producer abandonment")
	}
	if ms.LiveSubscribers != 0 || ms.InFlight != 0 {
		t.Fatalf("memo state not drained: %+v", ms)
	}
}

// TestMemoEvictionUnderBudget: memo results are derived entities under the
// shared budget — a budget too small for the result refuses the insert and
// the next request extracts again, rather than blowing the budget.
func TestMemoEvictionUnderBudget(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, func(cfg *Config) {
		cfg.Memo = true
		cfg.DMS.MemBudget = 1 // one byte: nothing fits
	})
	var err1, err2 error
	v.Go(func() {
		cl := NewClient(rt)
		_, err1 = cl.Run("test.spanstream", spanParams())
		_, err2 = cl.Run("test.spanstream", spanParams())
		rt.Shutdown()
	})
	v.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v, %v", err1, err2)
	}
	ms := rt.Sched.MemoStats()
	if ms.Entries != 0 || ms.RejectedBudget < 1 {
		t.Fatalf("memo stats = %+v, want zero entries and a budget rejection", ms)
	}
	// In-flight coalescing still works without cache residency, so the
	// second (sequential) run is a fresh miss.
	if ms.Misses != 2 || ms.Hits != 0 {
		t.Fatalf("memo stats = %+v, want 2 misses", ms)
	}
	if prods := producerRecords(rt); len(prods) != 2 {
		t.Fatalf("extractions ran = %d, want 2", len(prods))
	}
}

// TestMemoIndexBoundedByCache: many distinct results under a budget that
// holds only a few of them. The cache is the only place a result lives: the
// memo table's index holds exactly the cached entries, and no result is
// named in the DMS name server: a run names exactly as many items as the
// identical memo-off run.
func TestMemoIndexBoundedByCache(t *testing.T) {
	// run also returns how many IDs the name server assigned during the run,
	// between two sentinel names.
	run := func(budget int64, requests int, memo bool) (*Runtime, dms.ItemID) {
		v := vclock.NewVirtual()
		rt := newFaultRuntime(t, v, 4, nil, func(cfg *Config) {
			cfg.Memo = memo
			cfg.DMS.MemBudget = budget
		})
		before := rt.DMS.Names.Resolve(dms.ItemName{Block: grid.BlockID{Dataset: "sentinel/before"}})
		var err error
		v.Go(func() {
			cl := NewClient(rt)
			for i := 0; i < requests && err == nil; i++ {
				p := spanParams()
				p["tag"] = strconv.Itoa(i) // a distinct memo key per request
				_, err = cl.Run("test.spanstream", p)
			}
			rt.Shutdown()
		})
		v.Wait()
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return rt, rt.DMS.Names.Resolve(dms.ItemName{Block: grid.BlockID{Dataset: "sentinel/after"}}) - before
	}
	rt, _ := run(0, 1, true)
	one := rt.Sched.MemoStats().BytesCached
	if one <= 0 {
		t.Fatal("an unbudgeted result was not cached")
	}
	const requests, fits = 40, 3
	rt, memoNamed := run(fits*one+one/2, requests, true)
	ms := rt.Sched.MemoStats()
	if ms.Misses != requests || ms.Entries < 1 || ms.Entries > fits || ms.Evictions < requests-fits {
		t.Fatalf("memo stats = %+v, want %d misses and at most %d resident entries", ms, requests, fits)
	}
	mt := rt.Sched.memo
	mt.mu.Lock()
	indexed := len(mt.ids)
	mt.mu.Unlock()
	if indexed != ms.Entries {
		t.Fatalf("memo index holds %d keys, the cache %d entries", indexed, ms.Entries)
	}
	if _, named := run(fits*one+one/2, requests, false); memoNamed != named {
		t.Fatalf("memo run named %d items in the DMS name server, the memo-off run %d: a result got a name", memoNamed, named)
	}
}

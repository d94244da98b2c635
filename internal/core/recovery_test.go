package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"viracocha/internal/faults"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
	"viracocha/internal/vclock"
)

// spanStreamCmd is the block-granular streaming workhorse of the recovery
// tests: it resolves a span over `items` work items (1s of compute each),
// streams one deterministic triangle per item as a block-tagged packet and
// reports the item's completion watermark. Outside journal mode it degrades
// to plain streaming, so the same command serves as its own fault-free
// reference.
type spanStreamCmd struct{}

func (spanStreamCmd) Name() string { return "test.spanstream" }
func (spanStreamCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	items := ctx.IntParam("items", 8)
	for _, it := range ctx.SpanItems(items, nil) {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		ctx.Charge(time.Second)
		m := &mesh.Mesh{}
		x := float64(it)
		a := m.AddVertex(mathx.Vec3{X: x})
		b := m.AddVertex(mathx.Vec3{X: x + 0.5})
		c := m.AddVertex(mathx.Vec3{X: x, Y: 1})
		m.AddTriangle(a, b, c)
		if err := ctx.StreamBlock(it, m); err != nil {
			return nil, err
		}
		ctx.BlockDone(it)
	}
	return nil, nil // everything streamed
}

// spanGatherCmd is the gathered twin of spanStreamCmd: completed items stay
// in worker memory until the final merge, so it declares no span (like the
// gathered commands, it deals its own share) and a dead rank is re-run whole.
type spanGatherCmd struct{}

func (spanGatherCmd) Name() string { return "test.spangather" }
func (spanGatherCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	items := ctx.IntParam("items", 8)
	out := &mesh.Mesh{}
	for _, it := range ctx.roundRobin(items, nil) {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		ctx.Charge(time.Second)
		x := float64(it)
		a := out.AddVertex(mathx.Vec3{X: x})
		b := out.AddVertex(mathx.Vec3{X: x + 0.5})
		c := out.AddVertex(mathx.Vec3{X: x, Y: 1})
		out.AddTriangle(a, b, c)
	}
	return out, nil
}

// runSpanScenario runs one journaled request against a fault plan and
// returns everything the recovery assertions need. cfgMut can tune the
// runtime config further.
func runSpanScenario(t *testing.T, workers int, plan *faults.Plan, cfgMut func(*Config),
	command string, params map[string]string) (*RunResult, error, RequestStats, time.Duration, *Runtime) {
	t.Helper()
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, workers, plan, cfgMut)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		p := map[string]string{"dataset": "tiny", "redistribute": "1"}
		for k, val := range params {
			p[k] = val
		}
		res, err = cl.Run(command, p)
		rt.Shutdown()
	})
	v.Wait()
	st, ok := rt.Sched.Stats(res.ReqID)
	if !ok {
		t.Fatalf("no stats recorded for req %d", res.ReqID)
	}
	if ierr := rt.Sched.CheckInvariants(); ierr != nil {
		t.Fatalf("scheduler invariants violated: %v", ierr)
	}
	return res, err, st, v.Now(), rt
}

// TestSpanCrashRedistributesUnfinishedBlocks is the tentpole acceptance
// scenario: a 4-rank streamed extraction where rank 2 (w2) crashes halfway
// through its span. Only the unfinished block is recomputed, under the same
// attempt, and the assembled mesh is byte-identical to the fault-free run.
func TestSpanCrashRedistributesUnfinishedBlocks(t *testing.T) {
	params := map[string]string{"workers": "4", "items": "8"}
	ref, rerr, rst, _, _ := runSpanScenario(t, 4, nil, nil, "test.spanstream", params)
	if rerr != nil {
		t.Fatalf("fault-free run failed: %v", rerr)
	}
	if rst.Redistributions != 0 || rst.BlocksRecomputed != 0 {
		t.Fatalf("fault-free stats = %+v, want no recovery activity", rst)
	}

	// Rank 2's span is {2, 6}: item 2 completes (and streams) at 1s; the
	// crash at 1.53s lands mid-way through item 6.
	plan := (&faults.Plan{Seed: 7}).CrashAt("w2", 1530*time.Millisecond)
	res, err, st, _, rt := runSpanScenario(t, 4, plan, nil, "test.spanstream", params)
	if err != nil {
		t.Fatalf("request failed despite redistribution: %v", err)
	}
	if res.Attempt != 0 {
		t.Fatalf("attempt = %d, want 0 (no restart for a journaled rank loss)", res.Attempt)
	}
	if st.Retries != 1 || st.Redistributions != 1 {
		t.Fatalf("stats = %+v, want Retries=1 Redistributions=1", st)
	}
	if st.BlocksRecomputed > 1 {
		t.Fatalf("BlocksRecomputed = %d, want ≤ 1 (only item 6 was unfinished)", st.BlocksRecomputed)
	}
	if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
		t.Fatalf("recovered mesh not byte-identical to fault-free run:\n got %s\nwant %s",
			meshSignature(res.Merged), meshSignature(ref.Merged))
	}
	if rt.Trace.CountMatching("redistributing") == 0 {
		t.Fatal("trace records no redistribution")
	}
}

// TestSpanRecoveryIsDeterministic replays the crash scenario and demands
// bit-equal outcomes under the virtual clock.
func TestSpanRecoveryIsDeterministic(t *testing.T) {
	params := map[string]string{"workers": "4", "items": "8"}
	plan1 := (&faults.Plan{Seed: 7}).CrashAt("w2", 1530*time.Millisecond)
	res1, err1, st1, end1, _ := runSpanScenario(t, 4, plan1, nil, "test.spanstream", params)
	plan2 := (&faults.Plan{Seed: 7}).CrashAt("w2", 1530*time.Millisecond)
	res2, err2, st2, end2, _ := runSpanScenario(t, 4, plan2, nil, "test.spanstream", params)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if end1 != end2 || st1.TotalRuntime() != st2.TotalRuntime() {
		t.Fatalf("timelines differ: end %v vs %v, makespan %v vs %v",
			end1, end2, st1.TotalRuntime(), st2.TotalRuntime())
	}
	if !bytes.Equal(res1.Merged.EncodeBinary(), res2.Merged.EncodeBinary()) {
		t.Fatal("meshes differ across identical seeded runs")
	}
}

// TestGatheredSpanReRunsWholeSpan: when completed items were never streamed
// they died with the worker, so even in journal mode the dead rank is re-run
// whole — under the same attempt, with no redistribution — and the merged
// result still matches.
func TestGatheredSpanReRunsWholeSpan(t *testing.T) {
	params := map[string]string{"workers": "4", "items": "8"}
	ref, rerr, _, _, _ := runSpanScenario(t, 4, nil, nil, "test.spangather", params)
	if rerr != nil {
		t.Fatalf("fault-free run failed: %v", rerr)
	}
	plan := (&faults.Plan{Seed: 7}).CrashAt("w2", 1530*time.Millisecond)
	res, err, st, _, _ := runSpanScenario(t, 4, plan, nil, "test.spangather", params)
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if res.Attempt != 0 {
		t.Fatalf("attempt = %d, want 0", res.Attempt)
	}
	if st.Retries != 1 || st.Redistributions != 0 || st.BlocksRecomputed != 0 {
		t.Fatalf("stats = %+v, want Retries=1 Redistributions=0 BlocksRecomputed=0 (rank 2 re-run)", st)
	}
	if meshSignature(res.Merged) != meshSignature(ref.Merged) {
		t.Fatal("recovered gathered mesh differs from fault-free run")
	}
}

// TestDuplicateRedispatchDoesNotDoubleAssign pins the redispatch/declareDead
// interleaving fix: a duplicated (or stale) recovery action pumped after the
// rank was already re-placed on a live worker must be dropped, not planted
// on a second worker with a conflicting busy-ref.
func TestDuplicateRedispatchDoesNotDoubleAssign(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 13}).CrashAt("w1", 1010*time.Millisecond)
	rt := newFaultRuntime(t, v, 5, plan, nil)
	s := rt.Sched
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		id, serr := cl.Submit("test.crunch", map[string]string{"dataset": "tiny", "workers": "4"})
		if serr != nil {
			t.Errorf("submit failed: %v", serr)
		}
		// w1 held rank 1; once it is re-run on the spare, queue a copy of
		// its recovery action while the re-run is still computing.
		if !waitFor(v, 2*time.Second, func() bool { return rt.Trace.CountMatching("re-dispatched") > 0 }) {
			t.Error("rank 1 was never re-dispatched")
		}
		s.mu.Lock()
		if ar := s.active[id]; ar != nil {
			s.redisQ = append(s.redisQ, redispatch{reqID: id, attempt: ar.attempt, rank: 1})
		}
		s.mu.Unlock()
		s.pump()
		res, err = cl.Collect(id)
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want 1", st.Retries)
	}
	if n := rt.Trace.CountMatching("redispatch dropped"); n == 0 {
		t.Fatal("duplicated redispatch was not dropped")
	}
	if n := rt.Trace.CountMatching("re-dispatched"); n != 1 {
		t.Fatalf("rank re-dispatched %d times, want exactly 1", n)
	}
	if ierr := rt.Sched.CheckInvariants(); ierr != nil {
		t.Fatalf("scheduler invariants violated: %v", ierr)
	}
	// 4 triangles, one per rank — the duplicate execution never ran.
	if res.Merged.NumTriangles() != 4 {
		t.Fatalf("merged triangles = %d, want 4", res.Merged.NumTriangles())
	}
}

// TestTaggedDuplicatesAreDeduped: link-level duplication of block-tagged
// partials is absorbed by the client's (block, bseq) dedupe.
func TestTaggedDuplicatesAreDeduped(t *testing.T) {
	params := map[string]string{"workers": "2", "items": "6"}
	ref, rerr, _, _, _ := runSpanScenario(t, 2, nil, nil, "test.spanstream", params)
	if rerr != nil {
		t.Fatalf("reference run failed: %v", rerr)
	}
	plan := &faults.Plan{
		Seed:  9,
		Links: []faults.LinkRule{{Kind: "partial", Duplicate: 1}},
	}
	res, err, _, _, _ := runSpanScenario(t, 2, plan, nil, "test.spanstream", params)
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if res.Partials != 6 {
		t.Fatalf("partials = %d, want 6 (duplicates discarded)", res.Partials)
	}
	if res.Duplicates != 6 {
		t.Fatalf("duplicates = %d, want 6 (each tagged packet doubled once)", res.Duplicates)
	}
	if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
		t.Fatal("deduped mesh not byte-identical to reference")
	}
}

// TestTaggedReorderAssemblesCanonically: block-tagged packets arriving out
// of canonical order (one rank's partials delayed in flight behind the
// other rank's) still assemble into a byte-identical mesh, because the
// client orders tagged packets by (block, bseq) at finalization rather than
// by arrival.
func TestTaggedReorderAssemblesCanonically(t *testing.T) {
	params := map[string]string{"workers": "2", "items": "8"}
	ref, rerr, _, _, _ := runSpanScenario(t, 2, nil, nil, "test.spanstream", params)
	if rerr != nil {
		t.Fatalf("reference run failed: %v", rerr)
	}
	plan := &faults.Plan{Seed: 3}
	plan.Links = []faults.LinkRule{
		{From: "w1", Kind: "partial", Delay: 300 * time.Millisecond},
	}
	res, err, _, _, _ := runSpanScenario(t, 2, plan, nil, "test.spanstream", params)
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if res.Partials != 8 {
		t.Fatalf("partials = %d, want 8", res.Partials)
	}
	if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
		t.Fatal("reordered tagged packets did not assemble byte-identically")
	}
}

// TestRedistributeOffKeepsLegacyRecovery: with the journal disabled the
// crash falls back to PR 1's whole-rank re-run — same attempt, no
// redistribution accounting — proving the new machinery is opt-in.
func TestRedistributeOffKeepsLegacyRecovery(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 7}).CrashAt("w2", 1530*time.Millisecond)
	rt := newFaultRuntime(t, v, 4, plan, nil)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.spanstream", map[string]string{
			"dataset": "tiny", "workers": "4", "items": "8",
		})
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want 1", st.Retries)
	}
	if st.Redistributions != 0 || st.BlocksRecomputed != 0 {
		t.Fatalf("journal-mode stats moved without redistribute: %+v", st)
	}
	if res.Attempt != 0 {
		t.Fatalf("attempt = %d, want 0 (rank re-run)", res.Attempt)
	}
	// The re-run rank re-streams its whole span; the plain (rank, seq)
	// dedupe cannot drop cross-incarnation duplicates of already-delivered
	// packets, which is exactly why journal mode exists.
	if res.Merged.NumTriangles() < 8 {
		t.Fatalf("merged triangles = %d, want ≥ 8", res.Merged.NumTriangles())
	}
}

// TestWatermarkSurvivesLostMarks: eagerly-sent wmark messages being dropped
// on the wire must not inflate the redistribution span beyond what the
// heartbeat-piggybacked cumulative watermark already covered.
func TestWatermarkSurvivesLostMarks(t *testing.T) {
	params := map[string]string{"workers": "4", "items": "8"}
	plan := (&faults.Plan{Seed: 21}).CrashAt("w2", 1530*time.Millisecond)
	plan.Links = []faults.LinkRule{
		{From: "w2", To: "scheduler", Kind: "wmark", Drop: 1},
	}
	ref, rerr, _, _, _ := runSpanScenario(t, 4, nil, nil, "test.spanstream", params)
	if rerr != nil {
		t.Fatalf("reference run failed: %v", rerr)
	}
	res, err, st, _, _ := runSpanScenario(t, 4, plan, nil, "test.spanstream", params)
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if st.Redistributions != 1 {
		t.Fatalf("stats = %+v, want Redistributions=1", st)
	}
	if st.BlocksRecomputed > 1 {
		t.Fatalf("BlocksRecomputed = %d, want ≤ 1: the heartbeat watermark covers lost wmarks",
			st.BlocksRecomputed)
	}
	if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
		t.Fatal("recovered mesh not byte-identical to fault-free run")
	}
}

// TestSpanTraceNamesRecoveryKinds: the trace distinguishes the recovery
// flavors so operators can tell redistribution from legacy re-dispatch.
func TestSpanTraceNamesRecoveryKinds(t *testing.T) {
	plan := (&faults.Plan{Seed: 7}).CrashAt("w2", 1530*time.Millisecond)
	_, err, _, _, rt := runSpanScenario(t, 4, plan, nil, "test.spanstream",
		map[string]string{"workers": "4", "items": "8"})
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	for _, want := range []string{"declared dead", "redistributing", "re-dispatched"} {
		if rt.Trace.CountMatching(want) == 0 {
			events := make([]string, 0, 8)
			for _, e := range rt.Trace.Matching("req") {
				events = append(events, e.String())
			}
			t.Fatalf("trace missing %q; recovery events:\n%s", want, strings.Join(events, "\n"))
		}
	}
}

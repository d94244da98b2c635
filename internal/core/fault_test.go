package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"viracocha/internal/dataset"
	"viracocha/internal/faults"
	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// crunchCmd charges a fixed 2s of compute then returns one triangle at
// x = rank, so crashes at t ∈ (0, 2s) hit every rank mid-computation and the
// merged output identifies exactly which ranks contributed.
type crunchCmd struct{}

func (crunchCmd) Name() string { return "test.crunch" }
func (crunchCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	ctx.Charge(2 * time.Second)
	var m mesh.Mesh
	x := float64(ctx.Rank)
	a := m.AddVertex(mathx.Vec3{X: x})
	b := m.AddVertex(mathx.Vec3{X: x + 1})
	c := m.AddVertex(mathx.Vec3{X: x, Y: 1})
	m.AddTriangle(a, b, c)
	return &m, nil
}

// fastFT is the test fault-tolerance tuning: quick detection so recovery
// happens within a few virtual seconds.
func fastFT() FTConfig {
	return FTConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		FailAfter:      200 * time.Millisecond,
	}
}

// newFaultRuntime mirrors newTestRuntime but injects a fault plan and the
// fast FT tuning; mut can adjust the config further before the runtime is
// assembled.
func newFaultRuntime(t *testing.T, v vclock.Clock, workers int, plan *faults.Plan, mut func(*Config)) *Runtime {
	t.Helper()
	cfg := DefaultConfig(workers)
	cfg.Model = testModel()
	cfg.FT = fastFT()
	cfg.Faults = faults.New(plan)
	if mut != nil {
		mut(&cfg)
	}
	rt := NewRuntime(v, cfg)
	rt.RegisterDataset(dataset.Tiny())
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 10e6, 1)
	rt.RegisterDevice(dev, func(grid.BlockID) int64 { return 4096 })
	rt.Register(echoCmd{})
	rt.Register(streamCmd{})
	rt.Register(loadCmd{})
	rt.Register(crunchCmd{})
	rt.Register(cancelPollCmd{})
	rt.Register(spanStreamCmd{})
	rt.Register(spanGatherCmd{})
	rt.Start()
	return rt
}

// meshSignature canonicalizes a mesh: each triangle becomes its sorted vertex
// coordinates, and triangles are sorted — so meshes that differ only in
// gather arrival order compare equal.
func meshSignature(m *mesh.Mesh) string {
	if m == nil {
		return ""
	}
	tris := make([]string, 0, m.NumTriangles())
	for t := 0; t < m.NumTriangles(); t++ {
		vs := make([]string, 3)
		for k := 0; k < 3; k++ {
			v := m.Vertex(int(m.Indices[3*t+k]))
			vs[k] = fmt.Sprintf("%.3f,%.3f,%.3f", v.X, v.Y, v.Z)
		}
		sort.Strings(vs)
		tris = append(tris, strings.Join(vs, "|"))
	}
	sort.Strings(tris)
	return strings.Join(tris, ";")
}

// runCrashScenario runs test.crunch on a 4-worker pool with w1 crashing
// mid-compute and returns what the client and the scheduler observed.
func runCrashScenario(t *testing.T, params map[string]string) (*RunResult, error, RequestStats, time.Duration) {
	t.Helper()
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 7}).CrashAt("w1", 1010*time.Millisecond)
	rt := newFaultRuntime(t, v, 4, plan, nil)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		p := map[string]string{"dataset": "tiny", "workers": "4"}
		for k, val := range params {
			p[k] = val
		}
		res, err = cl.Run("test.crunch", p)
		rt.Shutdown()
	})
	v.Wait()
	st, ok := rt.Sched.Stats(res.ReqID)
	if !ok {
		t.Fatalf("no stats recorded for req %d", res.ReqID)
	}
	return res, err, st, v.Now()
}

func TestCrashedRankIsRetriedOnSurvivor(t *testing.T) {
	// Fault-free reference run.
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, nil)
	var ref *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		ref, _ = cl.Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "4"})
		rt.Shutdown()
	})
	v.Wait()

	res, err, st, _ := runCrashScenario(t, nil)
	if err != nil {
		t.Fatalf("request failed despite retry budget: %v", err)
	}
	if st.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want exactly 1", st.Retries)
	}
	if st.Degraded {
		t.Fatal("rank failover must not mark the request degraded")
	}
	if got, want := meshSignature(res.Merged), meshSignature(ref.Merged); got != want {
		t.Fatalf("recovered mesh differs from fault-free run:\n got %s\nwant %s", got, want)
	}
	// The crashed rank re-ran for 2s after a survivor freed at ~2s.
	if tot := st.TotalRuntime(); tot < 3*time.Second || tot > 6*time.Second {
		t.Fatalf("recovered makespan = %v, want ~4s", tot)
	}
}

func TestCrashRecoveryIsDeterministic(t *testing.T) {
	res1, err1, st1, end1 := runCrashScenario(t, nil)
	res2, err2, st2, end2 := runCrashScenario(t, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if st1.TotalRuntime() != st2.TotalRuntime() {
		t.Fatalf("makespans differ across identical seeded runs: %v vs %v",
			st1.TotalRuntime(), st2.TotalRuntime())
	}
	if end1 != end2 {
		t.Fatalf("virtual end times differ: %v vs %v", end1, end2)
	}
	if meshSignature(res1.Merged) != meshSignature(res2.Merged) {
		t.Fatal("meshes differ across identical seeded runs")
	}
}

func TestFirstRequestArrivesBeforeFirstHeartbeat(t *testing.T) {
	// The runtime's heartbeat loops are already sleeping when the driver spawns
	// the client; however long the driver dawdles in wall time, the request
	// is received before the first beat — a fault plan's "crash at 1s" is then
	// a second into the request, not hours before it.
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, nil)
	time.Sleep(20 * time.Millisecond)
	var res *RunResult
	v.Go(func() {
		res, _ = NewClient(rt).Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "4"})
		rt.Shutdown()
	})
	v.Wait()
	st, ok := rt.Sched.Stats(res.ReqID)
	if !ok {
		t.Fatalf("no stats recorded for req %d", res.ReqID)
	}
	if st.Received >= fastFT().HeartbeatEvery {
		t.Fatalf("first request received at %v, want under one heartbeat (%v)", st.Received, fastFT().HeartbeatEvery)
	}
}

func TestCrashWithRetriesDisabledFailsCleanly(t *testing.T) {
	res, err, st, end := runCrashScenario(t, map[string]string{"retries": "0"})
	if err == nil {
		t.Fatal("expected a clean error with retries disabled")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("error = %v, want mention of exhausted retries", err)
	}
	if st.Errors == 0 {
		t.Fatal("stats.Errors not incremented for failed request")
	}
	if st.Retries != 0 {
		t.Fatalf("stats.Retries = %d with retries disabled", st.Retries)
	}
	// Failure must be prompt (detection window + slack), not a hang: the
	// whole session including drain ends within a few virtual seconds.
	if end > 10*time.Second {
		t.Fatalf("session dragged to %v; failure path hung", end)
	}
	_ = res
}

func TestMasterCrashRestartsOnSurvivor(t *testing.T) {
	v := vclock.NewVirtual()
	// Group of one on w0 (the master); w0 dies mid-compute.
	plan := (&faults.Plan{Seed: 3}).CrashAt("w0", 1010*time.Millisecond)
	rt := newFaultRuntime(t, v, 2, plan, nil)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "1"})
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatalf("request failed despite a free survivor: %v", err)
	}
	if res.Attempt != 1 {
		t.Fatalf("result attempt = %d, want 1 (full restart)", res.Attempt)
	}
	if res.Merged.NumTriangles() != 1 {
		t.Fatalf("merged triangles = %d, want 1", res.Merged.NumTriangles())
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Retries != 1 || st.Degraded {
		t.Fatalf("stats = %+v, want Retries=1 Degraded=false", st)
	}
	if rt.Sched.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1 after w0 died", rt.Sched.LiveWorkers())
	}
}

func TestRequestDegradesWhenPoolShrank(t *testing.T) {
	v := vclock.NewVirtual()
	// w2 dies while idle; a later request for 3 workers runs on the 2 left.
	plan := (&faults.Plan{Seed: 1}).CrashAt("w2", time.Millisecond)
	rt := newFaultRuntime(t, v, 3, plan, nil)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		v.Sleep(500 * time.Millisecond) // let the failure detector notice
		res, err = cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "3"})
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if !st.Degraded || st.Workers != 2 {
		t.Fatalf("stats = %+v, want Degraded=true Workers=2", st)
	}
	if res.Merged.NumTriangles() != 2 {
		t.Fatalf("merged triangles = %d, want 2 (one per surviving member)", res.Merged.NumTriangles())
	}
}

// TestRestartOfOversizedRequestIsNotDegraded: a request asking for more
// workers than the pool has runs on the whole pool without being degraded,
// and a full restart (here: the master's "start" lost in transit, caught by
// the idle-streak check, nobody dead) must size its group the same way.
func TestRestartOfOversizedRequestIsNotDegraded(t *testing.T) {
	v := vclock.NewVirtual()
	// Seed 4 drops the first message on the scheduler→w0 link (the master's
	// start) and passes the second (its start in the restarted attempt).
	plan := &faults.Plan{
		Seed:  4,
		Links: []faults.LinkRule{{From: "scheduler", To: "w0", Kind: "start", Drop: 0.5}},
	}
	rt := newFaultRuntime(t, v, 3, plan, nil)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "5"})
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if res.Attempt != 1 {
		t.Fatalf("result attempt = %d, want 1 (full restart)", res.Attempt)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Retries != 1 || st.Degraded || st.Workers != 3 {
		t.Fatalf("stats = %+v, want Retries=1 Degraded=false Workers=3", st)
	}
	if res.Merged.NumTriangles() != 3 {
		t.Fatalf("merged triangles = %d, want 3", res.Merged.NumTriangles())
	}
}

// TestRedispatchFollowsDeathImmediately: with a spare worker free, a dead
// rank is re-dispatched at the same virtual instant it is declared dead —
// nothing holds a ready recovery action back.
func TestRedispatchFollowsDeathImmediately(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 7}).CrashAt("w1", 1010*time.Millisecond)
	rt := newFaultRuntime(t, v, 5, plan, nil)
	v.Go(func() {
		NewClient(rt).Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "4"})
		rt.Shutdown()
	})
	v.Wait()
	dead, redis := rt.Trace.Matching("declared dead"), rt.Trace.Matching("re-dispatched")
	if len(dead) != 1 || len(redis) != 1 {
		t.Fatalf("declared dead %d times, re-dispatched %d times; want 1 each", len(dead), len(redis))
	}
	if redis[0].At != dead[0].At {
		t.Fatalf("re-dispatched at %v, declared dead at %v: want the same instant", redis[0].At, dead[0].At)
	}
}

func TestNoLiveWorkersFailsImmediately(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 1}).CrashAt("w0", time.Millisecond)
	rt := newFaultRuntime(t, v, 1, plan, nil)
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		v.Sleep(500 * time.Millisecond)
		_, err = cl.Run("test.echo", map[string]string{"dataset": "tiny"})
		rt.Shutdown()
	})
	v.Wait()
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("error = %v, want 'no live workers'", err)
	}
}

func TestCancelDuringRedispatchHonored(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 5}).CrashAt("w1", 2030*time.Millisecond)
	rt := newFaultRuntime(t, v, 3, plan, nil)
	var res *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		id, _ := cl.Submit("test.cancelpoll", map[string]string{
			"dataset": "tiny", "workers": "2", "units": "1000",
		})
		// Crash detected ~2.2s and the rank re-dispatched to the spare at
		// once. Cancel while it re-runs: the rank must observe it and abort.
		v.Sleep(2400 * time.Millisecond)
		if cerr := cl.Cancel(id); cerr != nil {
			t.Error(cerr)
		}
		res, _ = cl.Collect(id)
		rt.Shutdown()
	})
	v.Wait()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "cancelled") {
		t.Fatalf("expected cancellation error, got %v", res.Err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want 1 (rank was re-dispatched)", st.Retries)
	}
	if res.Total() > 30*time.Second {
		t.Fatalf("cancelled request still took %v", res.Total())
	}
}

func TestLostWdoneDoesNotHangScheduler(t *testing.T) {
	v := vclock.NewVirtual()
	plan := &faults.Plan{
		Seed:  11,
		Links: []faults.LinkRule{{From: "w0", To: "scheduler", Kind: "wdone", Drop: 1}},
	}
	rt := newFaultRuntime(t, v, 2, plan, nil)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.echo", map[string]string{"dataset": "tiny"})
		rt.Shutdown()
	})
	v.Wait() // the real assertion: shutdown drains instead of hanging
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	if res.Merged.NumTriangles() != 1 {
		t.Fatalf("merged triangles = %d, want 1", res.Merged.NumTriangles())
	}
	if rt.Sched.FinishedCount() != 1 {
		t.Fatalf("finished = %d, want 1", rt.Sched.FinishedCount())
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Retries < 1 {
		t.Fatal("lost wdone should have forced a recovery dispatch")
	}
}

func TestInjectedReadErrorSurfaces(t *testing.T) {
	v := vclock.NewVirtual()
	plan := &faults.Plan{
		Seed:  2,
		Reads: []faults.ReadRule{{Dataset: "tiny", Step: -1, Block: -1, Fail: -1}},
	}
	rt := newFaultRuntime(t, v, 2, plan, nil)
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		_, err = cl.Run("test.load", map[string]string{"dataset": "tiny", "workers": "2"})
		rt.Shutdown()
	})
	v.Wait()
	if err == nil || !strings.Contains(err.Error(), "injected read error") {
		t.Fatalf("error = %v, want injected read error", err)
	}
}

func TestDuplicatedPartialsAreDeduped(t *testing.T) {
	v := vclock.NewVirtual()
	plan := &faults.Plan{
		Seed:  9,
		Links: []faults.LinkRule{{From: "w0", Kind: "partial", Duplicate: 1}},
	}
	rt := newFaultRuntime(t, v, 1, plan, nil)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.stream", map[string]string{"dataset": "tiny", "packets": "3"})
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partials != 3 {
		t.Fatalf("partials = %d, want 3 (duplicates discarded)", res.Partials)
	}
	if res.Duplicates != 3 {
		t.Fatalf("duplicates = %d, want 3 (each packet doubled once)", res.Duplicates)
	}
	if res.Merged.NumTriangles() != 3 {
		t.Fatalf("merged triangles = %d, want 3", res.Merged.NumTriangles())
	}
}

func TestFaultTraceRecordsRecovery(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 7}).CrashAt("w1", 1010*time.Millisecond)
	rt := newFaultRuntime(t, v, 4, plan, nil)
	v.Go(func() {
		cl := NewClient(rt)
		cl.Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "4"})
		rt.Shutdown()
	})
	v.Wait()
	var crashed, declared, retried bool
	for _, e := range rt.Trace.Events() {
		if strings.Contains(e.Msg, "crashed") {
			crashed = true
		}
		if strings.Contains(e.Msg, "declared dead") {
			declared = true
		}
		if strings.Contains(e.Msg, "re-dispatched") {
			retried = true
		}
	}
	if !crashed || !declared || !retried {
		t.Fatalf("trace missing events: crashed=%v declared=%v retried=%v (%d events)",
			crashed, declared, retried, rt.Trace.Len())
	}
}

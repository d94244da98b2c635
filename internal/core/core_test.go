package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// echoCmd returns one triangle per worker, offset by rank.
type echoCmd struct{}

func (echoCmd) Name() string { return "test.echo" }
func (echoCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	var m mesh.Mesh
	x := float64(ctx.Rank)
	a := m.AddVertex(mathx.Vec3{X: x})
	b := m.AddVertex(mathx.Vec3{X: x + 1})
	c := m.AddVertex(mathx.Vec3{X: x, Y: 1})
	m.AddTriangle(a, b, c)
	return &m, nil
}

// streamCmd streams `packets` single-triangle partials per worker, spaced by
// 1s of charged compute, and returns nothing.
type streamCmd struct{}

func (streamCmd) Name() string { return "test.stream" }
func (streamCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	n := ctx.IntParam("packets", 2)
	for i := 0; i < n; i++ {
		ctx.Charge(time.Second)
		var m mesh.Mesh
		a := m.AddVertex(mathx.Vec3{X: float64(i)})
		b := m.AddVertex(mathx.Vec3{X: float64(i) + 1})
		c := m.AddVertex(mathx.Vec3{Y: 1})
		m.AddTriangle(a, b, c)
		if err := ctx.StreamPartial(&m); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// failCmd fails on rank 1.
type failCmd struct{}

func (failCmd) Name() string { return "test.fail" }
func (failCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	if ctx.Rank == 1 {
		return nil, fmt.Errorf("injected failure on %s", ctx.Group[ctx.Rank])
	}
	return &mesh.Mesh{}, nil
}

// sleepyCmd charges (rank+1) seconds of compute.
type sleepyCmd struct{}

func (sleepyCmd) Name() string { return "test.sleepy" }
func (sleepyCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	ctx.Charge(time.Duration(ctx.Rank+1) * time.Second)
	return &mesh.Mesh{}, nil
}

// loadCmd loads its assigned blocks through the DMS.
type loadCmd struct{}

func (loadCmd) Name() string { return "test.load" }
func (loadCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	for _, blk := range ctx.AssignedBlocks(nil) {
		if _, err := ctx.Load(grid.BlockID{Dataset: ctx.Dataset.Name, Step: ctx.StepParam(), Block: blk}); err != nil {
			return nil, err
		}
	}
	return &mesh.Mesh{}, nil
}

// testModel prices only the fabric, at a fast interconnect's 50 µs +
// bytes/1 GB/s: compute and reads are free, so a test's timeline is set by
// its storage latency and fault plan.
func testModel() Model { return Model{NetLatency: 50 * time.Microsecond, NetBandwidth: 1e9} }

func newTestRuntime(t *testing.T, v vclock.Clock, workers int) *Runtime {
	t.Helper()
	cfg := DefaultConfig(workers)
	cfg.Model = testModel()
	rt := NewRuntime(v, cfg)
	rt.RegisterDataset(dataset.Tiny())
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 10e6, 1)
	rt.RegisterDevice(dev, func(grid.BlockID) int64 { return 4096 })
	rt.Register(echoCmd{})
	rt.Register(streamCmd{})
	rt.Register(failCmd{})
	rt.Register(sleepyCmd{})
	rt.Register(loadCmd{})
	rt.Start()
	return rt
}

// TestFinishedTableIsBounded: a long-lived scheduler keeps only the newest
// maxFinished request records and counts the ones it evicted.
func TestFinishedTableIsBounded(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	const total = 3 * maxFinished
	var last uint64
	v.Go(func() {
		cl := NewClient(rt)
		for i := 0; i < total; i++ {
			res, err := cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "1"})
			if err != nil {
				t.Error(err)
				break
			}
			last = res.ReqID
		}
		rt.Shutdown()
	})
	v.Wait()
	if n := rt.Sched.FinishedCount(); n != maxFinished {
		t.Fatalf("retained %d records, want %d", n, maxFinished)
	}
	if d := rt.Sched.FinishedDropped(); d != total-maxFinished {
		t.Fatalf("dropped %d records, want %d", d, total-maxFinished)
	}
	all := rt.Sched.AllStats()
	if len(all) != maxFinished || all[len(all)-1].ReqID != last || all[0].ReqID != last-maxFinished+1 {
		t.Fatalf("AllStats holds %d records [%d..%d], want the newest %d ending at %d",
			len(all), all[0].ReqID, all[len(all)-1].ReqID, maxFinished, last)
	}
	if _, ok := rt.Sched.Stats(1); ok {
		t.Fatal("the oldest record survived eviction")
	}
}

func TestEchoGatherMerges(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 4)
	var res *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		var err error
		res, err = cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "3"})
		if err != nil {
			t.Error(err)
		}
		rt.Shutdown()
	})
	v.Wait()
	if res.Merged.NumTriangles() != 3 {
		t.Fatalf("merged triangles = %d, want 3 (one per group member)", res.Merged.NumTriangles())
	}
	if res.Partials != 0 {
		t.Fatalf("partials = %d, want 0 for non-streaming command", res.Partials)
	}
	st, ok := rt.Sched.Stats(res.ReqID)
	if !ok || st.Workers != 3 || st.Command != "test.echo" {
		t.Fatalf("stats = %+v, %v", st, ok)
	}
	if st.End < st.Started {
		t.Fatal("stats times inverted")
	}
}

func TestStreamingPartialsArriveBeforeFinal(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 2)
	var res *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		res, _ = cl.Run("test.stream", map[string]string{"dataset": "tiny", "workers": "2", "packets": "3"})
		rt.Shutdown()
	})
	v.Wait()
	if res.Partials != 6 {
		t.Fatalf("partials = %d, want 6 (2 workers × 3)", res.Partials)
	}
	if res.Merged.NumTriangles() != 6 {
		t.Fatalf("merged triangles = %d", res.Merged.NumTriangles())
	}
	// First packet lands after ~1s of compute; final after 3s + gather.
	if res.Latency() >= res.Total() {
		t.Fatalf("latency %v not below total %v", res.Latency(), res.Total())
	}
	if res.Latency() < time.Second || res.Latency() > 1100*time.Millisecond {
		t.Fatalf("latency = %v, want ≈ 1s", res.Latency())
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Streams != 6 {
		t.Fatalf("scheduler streams = %d", st.Streams)
	}
}

func TestParallelComputeMakespan(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 4)
	var res *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		res, _ = cl.Run("test.sleepy", map[string]string{"dataset": "tiny", "workers": "4"})
		rt.Shutdown()
	})
	v.Wait()
	st, _ := rt.Sched.Stats(res.ReqID)
	// Ranks charge 1..4s in parallel: makespan ≈ 4s (plus messaging).
	if st.TotalRuntime() < 4*time.Second || st.TotalRuntime() > 4100*time.Millisecond {
		t.Fatalf("TotalRuntime = %v, want ≈ 4s", st.TotalRuntime())
	}
	// Probe sum is 1+2+3+4 = 10s of compute.
	if st.Probes.Compute != 10*time.Second {
		t.Fatalf("summed compute = %v, want 10s", st.Probes.Compute)
	}
}

func TestWorkerFailurePropagates(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 2)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.fail", map[string]string{"dataset": "tiny", "workers": "2"})
		rt.Shutdown()
	})
	v.Wait()
	if err == nil || res.Err == nil {
		t.Fatal("expected remote error")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Errors == 0 {
		t.Fatal("scheduler did not record the error")
	}
}

func TestUnknownCommandFails(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	v.Go(func() {
		cl := NewClient(rt)
		if _, err := cl.Run("test.nope", map[string]string{"dataset": "tiny"}); err == nil {
			t.Error("expected error for unknown command")
		}
		rt.Shutdown()
	})
	v.Wait()
}

func TestUnknownDatasetFails(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	v.Go(func() {
		cl := NewClient(rt)
		if _, err := cl.Run("test.echo", map[string]string{"dataset": "nope"}); err == nil {
			t.Error("expected error for unknown dataset")
		}
		rt.Shutdown()
	})
	v.Wait()
}

func TestSchedulerQueuesWhenWorkersBusy(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 2)
	var id1, id2 uint64
	v.Go(func() {
		cl := NewClient(rt)
		id1, _ = cl.Submit("test.sleepy", map[string]string{"dataset": "tiny", "workers": "2"})
		id2, _ = cl.Submit("test.sleepy", map[string]string{"dataset": "tiny", "workers": "2"})
		cl.Collect(id1)
		cl.Collect(id2)
		rt.Shutdown()
	})
	v.Wait()
	first, ok1 := rt.Sched.Stats(id1)
	second, ok2 := rt.Sched.Stats(id2)
	if !ok1 || !ok2 {
		t.Fatal("stats missing after shutdown")
	}
	if second.Started < first.End {
		t.Fatalf("second request started at %v before first ended at %v", second.Started, first.End)
	}
}

// TestQueueWaitRunsFromArrival: a request queued behind another on a
// one-worker pool is received when it arrives, not when it is dispatched, so
// its queue wait (Started - Received) covers the first request's runtime.
func TestQueueWaitRunsFromArrival(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	var id1, id2 uint64
	v.Go(func() {
		cl := NewClient(rt)
		id1, _ = cl.Submit("test.sleepy", map[string]string{"dataset": "tiny"})
		id2, _ = cl.Submit("test.sleepy", map[string]string{"dataset": "tiny"})
		cl.Collect(id1)
		cl.Collect(id2)
		rt.Shutdown()
	})
	v.Wait()
	first, _ := rt.Sched.Stats(id1)
	second, _ := rt.Sched.Stats(id2)
	run, wait := first.TotalRuntime(), second.Started-second.Received
	if run < time.Second {
		t.Fatalf("first request ran %v, want >= 1s", run)
	}
	if d := wait - run; d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("second request waited %v in the queue, want ~%v (the first's runtime)", wait, run)
	}
}

func TestGroupSizeClampedToPool(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 2)
	var res *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		res, _ = cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "16"})
		rt.Shutdown()
	})
	v.Wait()
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Workers != 2 {
		t.Fatalf("group size = %d, want clamped 2", st.Workers)
	}
}

func TestLoadCommandUsesDMSCache(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 2)
	var id1, id2 uint64
	v.Go(func() {
		cl := NewClient(rt)
		r1, _ := cl.Run("test.load", map[string]string{"dataset": "tiny", "workers": "2"})
		r2, _ := cl.Run("test.load", map[string]string{"dataset": "tiny", "workers": "2"})
		id1, id2 = r1.ReqID, r2.ReqID
		rt.Shutdown()
	})
	v.Wait()
	cold, _ := rt.Sched.Stats(id1)
	warm, _ := rt.Sched.Stats(id2)
	if warm.Probes.Read >= cold.Probes.Read {
		t.Fatalf("warm read %v not below cold read %v", warm.Probes.Read, cold.Probes.Read)
	}
	dev := rt.Device("disk")
	if dev.Stats().Loads != 4 {
		t.Fatalf("device loads = %d, want 4 (each worker loaded its 2 blocks once)", dev.Stats().Loads)
	}
}

func TestAssignedBlocksPartition(t *testing.T) {
	ds := dataset.Tiny() // 4 blocks
	seen := map[int]int{}
	for rank := 0; rank < 3; rank++ {
		ctx := &Ctx{Rank: rank, GroupSize: 3, Dataset: ds}
		for _, b := range ctx.AssignedBlocks(nil) {
			seen[b]++
		}
	}
	if len(seen) != 4 {
		t.Fatalf("blocks covered = %d, want 4", len(seen))
	}
	for b, n := range seen {
		if n != 1 {
			t.Fatalf("block %d assigned %d times", b, n)
		}
	}
	// With an ordering, the permuted blocks are assigned.
	ctx := &Ctx{Rank: 0, GroupSize: 2, Dataset: ds}
	got := ctx.AssignedBlocks([]int{3, 2, 1, 0})
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("ordered assignment = %v", got)
	}
}

func TestAssignedSlice(t *testing.T) {
	total := 10
	covered := 0
	for rank := 0; rank < 3; rank++ {
		lo, hi := AssignedSlice(total, rank, 3)
		covered += hi - lo
		if lo > hi {
			t.Fatalf("inverted slice for rank %d", rank)
		}
	}
	if covered != total {
		t.Fatalf("covered %d, want %d", covered, total)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig(1)
	rt := NewRuntime(v, cfg)
	rt.Register(echoCmd{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Register(echoCmd{})
}

func TestRuntimeUnderRealClock(t *testing.T) {
	// The same framework must run under the real clock (used by the TCP
	// server and the examples).
	r := vclock.NewReal()
	rt := newTestRuntime(t, r, 2)
	var res *RunResult
	r.Go(func() {
		cl := NewClient(rt)
		var err error
		res, err = cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "2"})
		if err != nil {
			t.Error(err)
		}
		rt.Shutdown()
	})
	r.Wait()
	if res == nil || res.Merged.NumTriangles() != 2 {
		t.Fatal("real-clock run failed")
	}
}

func TestCollectOutOfOrder(t *testing.T) {
	// Two requests collected in reverse submission order: the client stash
	// must demultiplex interleaved messages correctly.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 4)
	v.Go(func() {
		cl := NewClient(rt)
		r1, _ := cl.Submit("test.echo", map[string]string{"dataset": "tiny", "workers": "2"})
		r2, _ := cl.Submit("test.echo", map[string]string{"dataset": "tiny", "workers": "2"})
		res2, err := cl.Collect(r2)
		if err != nil || res2.Merged.NumTriangles() != 2 {
			t.Errorf("collect r2 = %v, %v", res2.Merged.NumTriangles(), err)
		}
		res1, err := cl.Collect(r1)
		if err != nil || res1.Merged.NumTriangles() != 2 {
			t.Errorf("collect r1 = %v, %v", res1.Merged.NumTriangles(), err)
		}
		rt.Shutdown()
	})
	v.Wait()
}

func TestStreamingInterleavedRequests(t *testing.T) {
	// Two streaming requests in flight at once on disjoint work groups:
	// partials interleave at the client and must be attributed correctly.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 4)
	v.Go(func() {
		cl := NewClient(rt)
		r1, _ := cl.Submit("test.stream", map[string]string{"dataset": "tiny", "workers": "2", "packets": "2"})
		r2, _ := cl.Submit("test.stream", map[string]string{"dataset": "tiny", "workers": "2", "packets": "3"})
		res1, err := cl.Collect(r1)
		if err != nil || res1.Partials != 4 {
			t.Errorf("r1 partials = %d, %v (want 4)", res1.Partials, err)
		}
		res2, err := cl.Collect(r2)
		if err != nil || res2.Partials != 6 {
			t.Errorf("r2 partials = %d, %v (want 6)", res2.Partials, err)
		}
		rt.Shutdown()
	})
	v.Wait()
}

func TestMultipleClientsConcurrently(t *testing.T) {
	// Two independent client actors with their own endpoints submit at the
	// same time; each must get exactly its own results back.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 4)
	results := make([]*RunResult, 2)
	var done [2]*vclock.Gate
	for i := 0; i < 2; i++ {
		i := i
		done[i] = vclock.NewGate(v)
		v.Go(func() {
			defer done[i].Open()
			cl := NewClient(rt)
			res, err := cl.Run("test.stream", map[string]string{
				"dataset": "tiny", "workers": "2", "packets": strconv.Itoa(i + 2)})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = res
		})
	}
	v.Go(func() {
		done[0].Wait()
		done[1].Wait()
		rt.Shutdown()
	})
	v.Wait()
	// Client 0 asked for 2 packets × 2 workers, client 1 for 3 × 2.
	if results[0] == nil || results[0].Partials != 4 {
		t.Fatalf("client 0 partials = %+v", results[0])
	}
	if results[1] == nil || results[1].Partials != 6 {
		t.Fatalf("client 1 partials = %+v", results[1])
	}
}

// TestClientAddsOneEndpoint: an in-process client is one endpoint on the
// fabric, the one its requests are routed back to.
func TestClientAddsOneEndpoint(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 2)
	v.Go(func() {
		for i := 0; i < 3; i++ {
			before := rt.Net.Stats().Endpoints
			NewClient(rt)
			if grew := rt.Net.Stats().Endpoints - before; grew != 1 {
				t.Errorf("client %d added %d endpoints, want 1", i, grew)
			}
		}
		rt.Shutdown()
	})
	v.Wait()
}

// progressCmd reports progress over 5 units with charged compute.
type progressCmd struct{}

func (progressCmd) Name() string { return "test.progress" }
func (progressCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	for i := 1; i <= 5; i++ {
		ctx.Charge(time.Second)
		ctx.Progress(i, 5)
	}
	return &mesh.Mesh{}, nil
}

func TestProgressReports(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	rt.Register(progressCmd{})
	var with, without *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		with, _ = cl.Run("test.progress", map[string]string{"dataset": "tiny", "progress": "1"})
		without, _ = cl.Run("test.progress", map[string]string{"dataset": "tiny"})
		rt.Shutdown()
	})
	v.Wait()
	if len(with.Progress) != 5 {
		t.Fatalf("progress reports = %d, want 5", len(with.Progress))
	}
	for i, p := range with.Progress {
		if p.Done != i+1 || p.Total != 5 || p.Worker == "" {
			t.Fatalf("report %d = %+v", i, p)
		}
	}
	// Reports arrive spread over the computation, not all at the end.
	if with.Progress[0].At >= with.FinalAt {
		t.Fatal("first progress report arrived after the final result")
	}
	if len(without.Progress) != 0 {
		t.Fatalf("progress reported without opt-in: %d", len(without.Progress))
	}
}

// claimCmd claims rank-agnostic work items dynamically, charging per-item
// compute proportional to the item index (deliberately imbalanced).
type claimCmd struct {
	mu      sync.Mutex
	claimed map[int]string
}

func (c *claimCmd) Name() string { return "test.claim" }
func (c *claimCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	total := ctx.IntParam("items", 8)
	for {
		i, ok := ctx.ClaimWork(total)
		if !ok {
			return &mesh.Mesh{}, nil
		}
		c.mu.Lock()
		if prev, dup := c.claimed[i]; dup {
			c.mu.Unlock()
			return nil, fmt.Errorf("item %d claimed by both %s and %s", i, prev, ctx.Group[ctx.Rank])
		}
		c.claimed[i] = ctx.Group[ctx.Rank]
		c.mu.Unlock()
		ctx.Charge(time.Duration(i+1) * time.Second)
	}
}

func TestClaimWorkExactlyOnce(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 4)
	cmd := &claimCmd{claimed: map[int]string{}}
	rt.Register(cmd)
	v.Go(func() {
		cl := NewClient(rt)
		if _, err := cl.Run("test.claim", map[string]string{"dataset": "tiny", "workers": "4", "items": "12"}); err != nil {
			t.Error(err)
		}
		rt.Shutdown()
	})
	v.Wait()
	if len(cmd.claimed) != 12 {
		t.Fatalf("claimed %d items, want 12", len(cmd.claimed))
	}
	workers := map[string]bool{}
	for _, w := range cmd.claimed {
		workers[w] = true
	}
	if len(workers) < 2 {
		t.Fatalf("all items went to %v: no distribution", workers)
	}
}

func TestDynamicBeatsStaticOnImbalancedWork(t *testing.T) {
	// Static contiguous split of items with cost i+1 puts the heavy tail on
	// the last rank; dynamic claiming balances it.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 4)
	rt.Register(&claimCmd{claimed: map[int]string{}})
	rt.Register(staticCmd{})
	var dynID, statID uint64
	v.Go(func() {
		cl := NewClient(rt)
		r1, _ := cl.Run("test.claim", map[string]string{"dataset": "tiny", "workers": "4", "items": "16"})
		r2, _ := cl.Run("test.static", map[string]string{"dataset": "tiny", "workers": "4", "items": "16"})
		dynID, statID = r1.ReqID, r2.ReqID
		rt.Shutdown()
	})
	v.Wait()
	dyn, _ := rt.Sched.Stats(dynID)
	stat, _ := rt.Sched.Stats(statID)
	if dyn.TotalRuntime() >= stat.TotalRuntime() {
		t.Fatalf("dynamic %v not faster than static %v on imbalanced work",
			dyn.TotalRuntime(), stat.TotalRuntime())
	}
}

// staticCmd does the same imbalanced work with the static contiguous split.
type staticCmd struct{}

func (staticCmd) Name() string { return "test.static" }
func (staticCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	total := ctx.IntParam("items", 8)
	lo, hi := AssignedSlice(total, ctx.Rank, ctx.GroupSize)
	for i := lo; i < hi; i++ {
		ctx.Charge(time.Duration(i+1) * time.Second)
	}
	return &mesh.Mesh{}, nil
}

func TestShutdownDrainsPendingRequests(t *testing.T) {
	// A shutdown arriving while requests are queued must let them finish.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	var collected int
	v.Go(func() {
		cl := NewClient(rt)
		r1, _ := cl.Submit("test.sleepy", map[string]string{"dataset": "tiny", "workers": "1"})
		r2, _ := cl.Submit("test.sleepy", map[string]string{"dataset": "tiny", "workers": "1"})
		rt.Shutdown() // arrives at the scheduler between/around the work
		if res, err := cl.Collect(r1); err == nil && res.Err == nil {
			collected++
		}
		if res, err := cl.Collect(r2); err == nil && res.Err == nil {
			collected++
		}
	})
	v.Wait()
	if collected != 2 {
		t.Fatalf("collected %d results after shutdown-while-busy, want 2", collected)
	}
}

func TestSchedulerIgnoresStrayDone(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	v.Go(func() {
		// Hand-craft a wdone for a request that never existed.
		ep := rt.Net.Endpoint("rogue")
		ep.Send("scheduler", comm.Message{Kind: "wdone", ReqID: 999, Body: &Report{Worker: "w0"}})
		cl := NewClient(rt)
		if _, err := cl.Run("test.echo", map[string]string{"dataset": "tiny"}); err != nil {
			t.Error(err)
		}
		rt.Shutdown()
	})
	v.Wait()
}

func TestCancelStopsRunningRequest(t *testing.T) {
	// cancelPollCmd charges 1s per claimed unit, polling cancellation.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	rt.Register(cancelPollCmd{})
	var res *RunResult
	v.Go(func() {
		cl := NewClient(rt)
		id, _ := cl.Submit("test.cancelpoll", map[string]string{"dataset": "tiny", "units": "1000"})
		// Let it run a while, then cancel.
		v.Sleep(5 * time.Second)
		if err := cl.Cancel(id); err != nil {
			t.Error(err)
		}
		res, _ = cl.Collect(id)
		rt.Shutdown()
	})
	v.Wait()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "cancelled") {
		t.Fatalf("expected cancellation error, got %v", res.Err)
	}
	// The request ended long before the 1000s of work it was given.
	if res.Total() > 30*time.Second {
		t.Fatalf("cancelled request still took %v", res.Total())
	}
}

func TestCancelUnknownRequestIsHarmless(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	v.Go(func() {
		cl := NewClient(rt)
		cl.Cancel(4242) // never submitted
		if _, err := cl.Run("test.echo", map[string]string{"dataset": "tiny"}); err != nil {
			t.Error(err)
		}
		rt.Shutdown()
	})
	v.Wait()
}

func TestCancelledFlagClearedAfterCompletion(t *testing.T) {
	// A reused... request IDs are unique, but the flag must not leak.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	rt.Register(cancelPollCmd{})
	v.Go(func() {
		cl := NewClient(rt)
		id, _ := cl.Submit("test.cancelpoll", map[string]string{"dataset": "tiny", "units": "1000"})
		v.Sleep(3 * time.Second)
		cl.Cancel(id)
		cl.Collect(id)
		rt.Shutdown()
	})
	v.Wait()
	rt.mu.Lock()
	leaked := len(rt.cancelled)
	rt.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d cancellation flags leaked", leaked)
	}
}

type cancelPollCmd struct{}

func (cancelPollCmd) Name() string { return "test.cancelpoll" }
func (cancelPollCmd) Run(ctx *Ctx) (*mesh.Mesh, error) {
	units := ctx.IntParam("units", 10)
	for i := 0; i < units; i++ {
		if ctx.Cancelled() {
			return nil, ErrCancelled
		}
		ctx.Charge(time.Second)
	}
	return &mesh.Mesh{}, nil
}

package commands

import (
	"math"
	"strings"
	"testing"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// harness spins up a virtual-clock runtime over the given data set and runs
// fn as the client actor; it returns after full shutdown.
func harness(t *testing.T, ds *dataset.Desc, workers int, fn func(cl *core.Client, rt *core.Runtime)) *core.Runtime {
	t.Helper()
	return harnessOn(t, vclock.NewVirtual(), ds, workers, fn)
}

// harnessOn is harness on the given clock, priced as core.ConfigFor prices
// that clock kind.
func harnessOn(t *testing.T, c vclock.Clock, ds *dataset.Desc, workers int, fn func(cl *core.Client, rt *core.Runtime)) *core.Runtime {
	t.Helper()
	rt := core.NewRuntime(c, core.ConfigFor(c, workers))
	rt.RegisterDataset(ds)
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: ds}, c, time.Millisecond, 50e6, 1)
	dev.ChargeBytes = func(grid.BlockID) int64 { return ds.PaperBlockBytes / 16 }
	rt.RegisterDevice(dev, func(grid.BlockID) int64 { return ds.PaperBlockBytes / 16 })
	RegisterAll(rt)
	rt.Start()
	c.Go(func() {
		cl := core.NewClient(rt)
		fn(cl, rt)
		rt.Shutdown()
	})
	c.Wait()
	return rt
}

func params(kv ...string) map[string]string {
	m := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func TestSimpleIsoAndDataManProduceSameGeometry(t *testing.T) {
	var simple, dataman *core.RunResult
	harness(t, dataset.Tiny(), 2, func(cl *core.Client, rt *core.Runtime) {
		var err error
		simple, err = cl.Run("iso.simple", params("dataset", "tiny", "workers", "2", "iso", "0.5", "field", "pressure"))
		if err != nil {
			t.Error(err)
		}
		dataman, err = cl.Run("iso.dataman", params("dataset", "tiny", "workers", "2", "iso", "0.5", "field", "pressure"))
		if err != nil {
			t.Error(err)
		}
	})
	if simple.Merged.NumTriangles() == 0 {
		t.Fatal("no geometry extracted")
	}
	if simple.Merged.NumTriangles() != dataman.Merged.NumTriangles() {
		t.Fatalf("triangle counts differ: simple %d vs dataman %d",
			simple.Merged.NumTriangles(), dataman.Merged.NumTriangles())
	}
	if math.Abs(simple.Merged.Area()-dataman.Merged.Area()) > 1e-9 {
		t.Fatal("areas differ")
	}
}

func TestIsoDataManWarmRunIsFaster(t *testing.T) {
	var id1, id2 uint64
	rt := harness(t, dataset.Engine(), 4, func(cl *core.Client, _ *core.Runtime) {
		p := params("dataset", "engine", "workers", "4", "iso", "500", "field", "pressure")
		r1, err := cl.Run("iso.dataman", p)
		if err != nil {
			t.Error(err)
			return
		}
		r2, err := cl.Run("iso.dataman", p)
		if err != nil {
			t.Error(err)
			return
		}
		id1, id2 = r1.ReqID, r2.ReqID
	})
	cold, _ := rt.Sched.Stats(id1)
	warm, _ := rt.Sched.Stats(id2)
	if warm.TotalRuntime() >= cold.TotalRuntime() {
		t.Fatalf("warm %v not faster than cold %v", warm.TotalRuntime(), cold.TotalRuntime())
	}
	if warm.Probes.Read >= cold.Probes.Read/2 {
		t.Fatalf("warm read %v not ≪ cold read %v", warm.Probes.Read, cold.Probes.Read)
	}
}

func TestViewerIsoStreamsSameSurface(t *testing.T) {
	var viewer, dataman *core.RunResult
	harness(t, dataset.Tiny(), 2, func(cl *core.Client, _ *core.Runtime) {
		p := params("dataset", "tiny", "workers", "2", "iso", "0.5", "field", "pressure",
			"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "10")
		var err error
		viewer, err = cl.Run("iso.viewer", p)
		if err != nil {
			t.Error(err)
		}
		dataman, err = cl.Run("iso.dataman", params("dataset", "tiny", "workers", "2", "iso", "0.5", "field", "pressure"))
		if err != nil {
			t.Error(err)
		}
	})
	if viewer.Partials == 0 {
		t.Fatal("ViewerIso streamed nothing")
	}
	if viewer.Merged.NumTriangles() != dataman.Merged.NumTriangles() {
		t.Fatalf("streamed surface has %d triangles, full extraction %d",
			viewer.Merged.NumTriangles(), dataman.Merged.NumTriangles())
	}
	if viewer.Latency() >= viewer.Total() {
		t.Fatalf("latency %v not below total %v", viewer.Latency(), viewer.Total())
	}
}

func TestViewerIsoFrontBlocksArriveFirst(t *testing.T) {
	// Engine, eye on the -x side: the iso surface crosses every wedge, so
	// packets arriving earlier must, on average, be nearer the eye.
	var res *core.RunResult
	harness(t, dataset.Engine(), 1, func(cl *core.Client, _ *core.Runtime) {
		p := params("dataset", "engine", "workers", "1", "iso", "500", "field", "pressure",
			"ex", "-1", "ey", "0", "ez", "0.05", "granularity", "200")
		var err error
		res, err = cl.Run("iso.viewer", p)
		if err != nil {
			t.Error(err)
		}
	})
	if res.Partials < 3 {
		t.Fatalf("expected several partials, got %d", res.Partials)
	}
	if res.Merged.NumTriangles() == 0 {
		t.Fatal("no streamed triangles")
	}
	eyeX := -1.0
	distOf := func(m int) float64 {
		c := res.Packets[m].Bounds().Center()
		return math.Hypot(c.X-eyeX, c.Y) // z irrelevant: eye in mid-plane
	}
	firstD := distOf(0)
	lastD := distOf(len(res.Packets) - 1)
	if firstD >= lastD {
		t.Fatalf("first packet at distance %.3f, last at %.3f: not front-to-back", firstD, lastD)
	}
}

func TestVortexCommandsAgree(t *testing.T) {
	var simple, dataman, streamed *core.RunResult
	harness(t, dataset.Engine(), 2, func(cl *core.Client, _ *core.Runtime) {
		p := params("dataset", "engine", "workers", "2", "lambda2", "-1000")
		var err error
		simple, err = cl.Run("vortex.simple", p)
		if err != nil {
			t.Error(err)
		}
		dataman, err = cl.Run("vortex.dataman", p)
		if err != nil {
			t.Error(err)
		}
		streamed, err = cl.Run("vortex.streamed", p)
		if err != nil {
			t.Error(err)
		}
	})
	if simple.Merged.NumTriangles() == 0 {
		t.Fatal("engine flow produced no vortex surface — threshold off?")
	}
	if dataman.Merged.NumTriangles() != simple.Merged.NumTriangles() {
		t.Fatalf("dataman %d vs simple %d triangles", dataman.Merged.NumTriangles(), simple.Merged.NumTriangles())
	}
	if streamed.Merged.NumTriangles() != simple.Merged.NumTriangles() {
		t.Fatalf("streamed %d vs simple %d triangles", streamed.Merged.NumTriangles(), simple.Merged.NumTriangles())
	}
	if streamed.Partials == 0 {
		t.Fatal("StreamedVortex streamed nothing")
	}
	if streamed.Latency() >= streamed.Total() {
		t.Fatal("streaming latency not below total")
	}
}

func TestStreamedVortexLatencyBeatsDataMan(t *testing.T) {
	var vd, sv *core.RunResult
	harness(t, dataset.Engine(), 2, func(cl *core.Client, _ *core.Runtime) {
		p := params("dataset", "engine", "workers", "2", "lambda2", "-1000", "cellbatch", "64")
		var err error
		vd, err = cl.Run("vortex.dataman", p)
		if err != nil {
			t.Error(err)
		}
		sv, err = cl.Run("vortex.streamed", p)
		if err != nil {
			t.Error(err)
		}
	})
	if sv.Latency() >= vd.Latency() {
		t.Fatalf("streamed latency %v not below dataman latency %v", sv.Latency(), vd.Latency())
	}
}

func TestPathlinesCommands(t *testing.T) {
	var simple, dataman *core.RunResult
	rt := harness(t, dataset.Tiny(), 2, func(cl *core.Client, _ *core.Runtime) {
		p := params("dataset", "tiny", "workers", "2", "seeds", "8",
			"seedbox", "0.3,0.3,0.2,1.7,0.7,0.4", "stepdt", "1", "t1", "1")
		var err error
		simple, err = cl.Run("pathlines.simple", p)
		if err != nil {
			t.Error(err)
		}
		dataman, err = cl.Run("pathlines.dataman", p)
		if err != nil {
			t.Error(err)
		}
	})
	if simple.Merged.NumVertices() < 8 {
		t.Fatalf("too few path points: %d", simple.Merged.NumVertices())
	}
	if simple.Merged.NumVertices() != dataman.Merged.NumVertices() {
		t.Fatalf("path point counts differ: %d vs %d", simple.Merged.NumVertices(), dataman.Merged.NumVertices())
	}
	if len(dataman.Merged.Values) != dataman.Merged.NumVertices() {
		t.Fatal("per-point times missing")
	}
	// The DMS version must hit the device far less: blocks cached across
	// traces rather than reloaded per trace.
	if rt.Device("disk").Stats().Loads == 0 {
		t.Fatal("no device loads recorded")
	}
}

func TestPathlinesDataManLoadsFewerBlocks(t *testing.T) {
	countLoads := func(cmd string) int64 {
		var loads int64
		harnessDone := harness(t, dataset.Tiny(), 2, func(cl *core.Client, rt *core.Runtime) {
			p := params("dataset", "tiny", "workers", "2", "seeds", "8",
				"seedbox", "0.3,0.3,0.2,1.7,0.7,0.4", "stepdt", "1", "t1", "1")
			if _, err := cl.Run(cmd, p); err != nil {
				t.Error(err)
			}
		})
		loads = harnessDone.Device("disk").Stats().Loads
		return loads
	}
	simple := countLoads("pathlines.simple")
	dataman := countLoads("pathlines.dataman")
	if dataman >= simple {
		t.Fatalf("dataman loads %d not below simple loads %d", dataman, simple)
	}
}

func TestProgressiveIsoStreamsCoarseLevelsFirst(t *testing.T) {
	var res *core.RunResult
	harness(t, dataset.Tiny().WithScale(2), 1, func(cl *core.Client, _ *core.Runtime) {
		p := params("dataset", "tiny", "workers", "1", "iso", "0.5", "field", "pressure", "levels", "2")
		var err error
		res, err = cl.Run("iso.progressive", p)
		if err != nil {
			t.Error(err)
		}
	})
	if res.Partials != 2 {
		t.Fatalf("partials = %d, want 2 coarse levels", res.Partials)
	}
	if res.Latency() >= res.Total() {
		t.Fatal("coarse level did not arrive before the final result")
	}
	if res.Merged.NumTriangles() == 0 {
		t.Fatal("no final surface")
	}
}

func TestSeedBoxParamValidation(t *testing.T) {
	var err error
	harness(t, dataset.Tiny(), 1, func(cl *core.Client, _ *core.Runtime) {
		_, err = cl.Run("pathlines.simple", params("dataset", "tiny", "workers", "1",
			"seedbox", "1,2,3", "stepdt", "1"))
	})
	if err == nil || !strings.Contains(err.Error(), "seedbox") {
		t.Fatalf("err = %v, want seedbox validation error", err)
	}
}

func TestAllCommandsRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, c := range All() {
		if names[c.Name()] {
			t.Fatalf("duplicate command name %s", c.Name())
		}
		names[c.Name()] = true
	}
	for _, want := range []string{
		"iso.simple", "iso.dataman", "iso.viewer", "iso.progressive",
		"vortex.simple", "vortex.dataman", "vortex.streamed",
		"pathlines.simple", "pathlines.dataman",
	} {
		if !names[want] {
			t.Fatalf("command %s missing", want)
		}
	}
}

func TestPathlinesDynamicDistributionMatchesStatic(t *testing.T) {
	var static, dynamic *core.RunResult
	harness(t, dataset.Tiny(), 3, func(cl *core.Client, _ *core.Runtime) {
		base := params("dataset", "tiny", "workers", "3", "seeds", "9",
			"seedbox", "0.3,0.3,0.2,1.7,0.7,0.4", "stepdt", "1", "t1", "1")
		var err error
		static, err = cl.Run("pathlines.dataman", base)
		if err != nil {
			t.Error(err)
		}
		dyn := params("dataset", "tiny", "workers", "3", "seeds", "9",
			"seedbox", "0.3,0.3,0.2,1.7,0.7,0.4", "stepdt", "1", "t1", "1",
			"distribution", "dynamic")
		dynamic, err = cl.Run("pathlines.dataman", dyn)
		if err != nil {
			t.Error(err)
		}
	})
	if static.Merged.NumVertices() != dynamic.Merged.NumVertices() {
		t.Fatalf("dynamic distribution changed the result: %d vs %d vertices",
			dynamic.Merged.NumVertices(), static.Merged.NumVertices())
	}
}

func TestIsoSurfacesMeetAtBlockSeams(t *testing.T) {
	// Adjacent engine wedges share face nodes with identical field values:
	// after welding, the combined surface must be crack-free along seams
	// (no boundary edge of one wedge's fragment left unmatched where the
	// neighbor has geometry). We verify via the weld: merging the two
	// per-block meshes must remove a non-trivial number of duplicate seam
	// vertices.
	var res *core.RunResult
	harness(t, dataset.Engine(), 1, func(cl *core.Client, _ *core.Runtime) {
		var err error
		res, err = cl.Run("iso.dataman", params("dataset", "engine", "workers", "1",
			"iso", "500", "field", "pressure"))
		if err != nil {
			t.Error(err)
		}
	})
	m := res.Merged
	before := m.NumVertices()
	area := m.Area()
	removed := m.Weld(1e-7)
	if removed == 0 || before == 0 {
		t.Fatalf("weld removed %d of %d vertices: seams not shared", removed, before)
	}
	if math.Abs(m.Area()-area) > 1e-9*math.Max(1, area) {
		t.Fatalf("weld changed the surface area: %v → %v", area, m.Area())
	}
}

func TestProgressiveIncrementalMatchesRecompute(t *testing.T) {
	var recompute, incremental *core.RunResult
	var recomputeID, incrementalID uint64
	rt := harness(t, dataset.Engine(), 2, func(cl *core.Client, _ *core.Runtime) {
		base := params("dataset", "engine", "workers", "2", "iso", "500",
			"field", "pressure", "levels", "2")
		var err error
		recompute, err = cl.Run("iso.progressive", base)
		if err != nil {
			t.Error(err)
		}
		inc := params("dataset", "engine", "workers", "2", "iso", "500",
			"field", "pressure", "levels", "2", "incremental", "1")
		incremental, err = cl.Run("iso.progressive", inc)
		if err != nil {
			t.Error(err)
		}
		recomputeID, incrementalID = recompute.ReqID, incremental.ReqID
	})
	// Both must stream one partial per coarse level per worker (2 workers ×
	// 2 coarse levels) and finish with the same full-resolution surface.
	if recompute.Partials != 4 || incremental.Partials != 4 {
		t.Fatalf("partials = %d vs %d, want 4 each", recompute.Partials, incremental.Partials)
	}
	// Final surfaces: recompute result mesh vs incremental result mesh. The
	// merged meshes also include coarse previews, so compare only the final
	// gathered payload: Merged minus streamed packets.
	finalTris := func(r *core.RunResult) int {
		n := r.Merged.NumTriangles()
		for _, p := range r.Packets {
			n -= p.NumTriangles()
		}
		return n
	}
	if finalTris(recompute) != finalTris(incremental) {
		t.Fatalf("final surfaces differ: %d vs %d triangles",
			finalTris(recompute), finalTris(incremental))
	}
	// Incremental must charge less compute (fewer cells visited).
	rs, _ := rt.Sched.Stats(recomputeID)
	is, _ := rt.Sched.Stats(incrementalID)
	if is.Probes.Compute >= rs.Probes.Compute {
		t.Fatalf("incremental compute %v not below recompute %v",
			is.Probes.Compute, rs.Probes.Compute)
	}
}

func TestVortexCommandCancellation(t *testing.T) {
	// Cancel a running vortex extraction between blocks: the command must
	// return the cancellation error instead of a surface, and end well
	// before an uncancelled run on the same model does.
	run := func(cancelAt time.Duration) *core.RunResult {
		v := vclock.NewVirtual()
		rt := core.NewRuntime(v, core.DefaultConfig(1))
		rt.RegisterDataset(dataset.Engine())
		dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Engine()}, v, time.Millisecond, 50e6, 1)
		rt.RegisterDevice(dev, nil)
		RegisterAll(rt)
		rt.Start()
		var res *core.RunResult
		v.Go(func() {
			cl := core.NewClient(rt)
			id, _ := cl.Submit("vortex.dataman", params("dataset", "engine", "workers", "1", "lambda2", "-1000"))
			if cancelAt > 0 {
				v.Sleep(cancelAt)
				cl.Cancel(id)
			}
			res, _ = cl.Collect(id)
			rt.Shutdown()
		})
		v.Wait()
		return res
	}
	full := run(0)
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	// 23 blocks: a sixth of the way in is a few blocks.
	res := run(full.Total() / 6)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "cancel") {
		t.Fatalf("expected cancellation, got %v", res.Err)
	}
	if res.Total() > full.Total()/2 {
		t.Fatalf("cancelled run took %v of an uncancelled run's %v", res.Total(), full.Total())
	}
}

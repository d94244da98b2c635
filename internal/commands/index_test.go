package commands

import (
	"math"
	"testing"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
)

// TestBlockOrderDeterministicOnTies is the regression test for the viewer's
// front-to-back ordering: blocks at equal distance from the eye must sort by
// block index, independent of the initial permutation (map iteration, pool
// reuse), so repeated renders stream packets in an identical order.
func TestBlockOrderDeterministicOnTies(t *testing.T) {
	dist := []float64{3, 1, 3, 1, 2}
	want := []int{1, 3, 4, 0, 2}
	for _, start := range [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{3, 1, 0, 2, 4},
	} {
		order := append([]int(nil), start...)
		blockOrderInto(order, dist)
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("start %v: order = %v, want %v", start, order, want)
			}
		}
	}
}

// runBoth runs the same command twice, with the index path off and on, and
// returns both results.
func runBoth(t *testing.T, ds *dataset.Desc, workers int, cmd string, kv ...string) (off, on *core.RunResult) {
	t.Helper()
	harness(t, ds, workers, func(cl *core.Client, _ *core.Runtime) {
		var err error
		off, err = cl.Run(cmd, params(append(kv, "index", "0")...))
		if err != nil {
			t.Error(err)
		}
		on, err = cl.Run(cmd, params(append(kv, "index", "1")...))
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return off, on
}

// assertSameSurface compares two gathered meshes for identical extraction
// output: triangle-for-triangle the same surface.
func assertSameSurface(t *testing.T, label string, off, on *core.RunResult) {
	t.Helper()
	if off.Merged.NumTriangles() == 0 {
		t.Fatalf("%s: baseline produced no geometry — equivalence test degenerate", label)
	}
	if on.Merged.NumTriangles() != off.Merged.NumTriangles() {
		t.Fatalf("%s: indexed %d triangles vs unindexed %d", label,
			on.Merged.NumTriangles(), off.Merged.NumTriangles())
	}
	if math.Abs(on.Merged.Area()-off.Merged.Area()) > 1e-9*math.Max(1, off.Merged.Area()) {
		t.Fatalf("%s: surface areas differ: %v vs %v", label, on.Merged.Area(), off.Merged.Area())
	}
}

func TestIsoDataManIndexedMatchesUnindexed(t *testing.T) {
	off, on := runBoth(t, dataset.Engine(), 2, "iso.dataman",
		"dataset", "engine", "workers", "2", "iso", "500", "field", "pressure")
	assertSameSurface(t, "iso.dataman", off, on)
}

func TestViewerIsoIndexedMatchesUnindexed(t *testing.T) {
	off, on := runBoth(t, dataset.Tiny(), 2, "iso.viewer",
		"dataset", "tiny", "workers", "2", "iso", "0.5", "field", "pressure",
		"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "10")
	assertSameSurface(t, "iso.viewer", off, on)
	if on.Partials == 0 {
		t.Fatal("indexed viewer streamed nothing")
	}
}

func TestProgressiveIsoIndexedMatchesUnindexed(t *testing.T) {
	off, on := runBoth(t, dataset.Engine(), 2, "iso.progressive",
		"dataset", "engine", "workers", "2", "iso", "500", "field", "pressure", "levels", "2")
	if off.Partials != on.Partials {
		t.Fatalf("coarse previews differ: %d vs %d partials", off.Partials, on.Partials)
	}
	// Compare only the final full-resolution payload (Merged also includes
	// the streamed coarse previews, which the index path leaves untouched).
	finalTris := func(r *core.RunResult) int {
		n := r.Merged.NumTriangles()
		for _, p := range r.Packets {
			n -= p.NumTriangles()
		}
		return n
	}
	if finalTris(off) != finalTris(on) {
		t.Fatalf("final surfaces differ: %d vs %d triangles", finalTris(on), finalTris(off))
	}
}

// TestIndexedSliderSweepWarmIsCheaper is the interaction the cached derived
// entities exist for: a user dragging the iso slider re-queries the same
// warm blocks with different iso values. With the index path on, the viewer
// serves each block's BSP tree from the DMS instead of rebuilding it, so the
// summed warm compute must drop below the rebuilding sweep; and the cold
// first query (which builds and prices the trees either way) must stay
// within a modest overhead.
func TestIndexedSliderSweepWarmIsCheaper(t *testing.T) {
	isos := []string{"420", "500", "580", "660"}
	sweep := func(index string) (cold, warm core.RequestStats) {
		var ids []uint64
		rt := harness(t, dataset.Engine(), 4, func(cl *core.Client, _ *core.Runtime) {
			for _, iso := range isos {
				res, err := cl.Run("iso.viewer", params("dataset", "engine", "workers", "4",
					"iso", iso, "field", "pressure", "ex", "-5", "index", index))
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, res.ReqID)
			}
		})
		if t.Failed() {
			t.FailNow()
		}
		cold, _ = rt.Sched.Stats(ids[0])
		for _, id := range ids[1:] {
			st, _ := rt.Sched.Stats(id)
			warm.Probes.Compute += st.Probes.Compute
			warm.Probes.Read += st.Probes.Read
		}
		return cold, warm
	}
	coldOff, warmOff := sweep("0")
	coldOn, warmOn := sweep("1")
	if warmOn.Probes.Compute >= warmOff.Probes.Compute {
		t.Fatalf("warm indexed sweep compute %v not below unindexed %v",
			warmOn.Probes.Compute, warmOff.Probes.Compute)
	}
	limit := coldOff.TotalRuntime() + coldOff.TotalRuntime()*15/100
	if coldOn.TotalRuntime() > limit {
		t.Fatalf("cold indexed query %v exceeds +15%% budget over %v",
			coldOn.TotalRuntime(), coldOff.TotalRuntime())
	}
}

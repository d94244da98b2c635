package commands

import (
	"bytes"
	"testing"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/vclock"
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

// viewerSweep runs iso.viewer once per iso value over the same blocks on a
// runtime of the given clock. It returns each query's merged mesh bytes and,
// after each query, how many BSP-tree lookups the DMS had missed so far.
func viewerSweep(t *testing.T, c vclock.Clock, ds *dataset.Desc, workers int, isos []string, kv ...string) (meshes [][]byte, misses []int64, rt *core.Runtime) {
	t.Helper()
	rt = harnessOn(t, c, ds, workers, func(cl *core.Client, rt *core.Runtime) {
		for _, iso := range isos {
			res, err := cl.Run("iso.viewer", params(append(kv, "iso", iso)...))
			if err != nil {
				t.Error(err)
				return
			}
			if res.Merged.NumTriangles() == 0 {
				t.Errorf("iso %s: no triangles — comparison degenerate", iso)
			}
			meshes = append(meshes, res.Merged.EncodeBinary())
			_, ps := rt.DMS.AggregateStats()
			misses = append(misses, ps.DerivedMisses)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return meshes, misses, rt
}

// TestViewerIsoIndexedMatchesUnindexed: the viewer's two tree paths — BSP
// trees cached in the DMS (the real clock's; once called the indexed path)
// and rebuilt and priced on every run (the virtual clock's, the paper's
// algorithm) — stream the same bytes.
func TestViewerIsoIndexedMatchesUnindexed(t *testing.T) {
	kv := []string{"dataset", "tiny", "workers", "2", "field", "pressure",
		"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "10"}
	rebuilt, _, vrt := viewerSweep(t, vclock.NewVirtual(), dataset.Tiny(), 2, []string{"0.5"}, kv...)
	cached, _, rrt := viewerSweep(t, vclock.NewReal(), dataset.Tiny(), 2, []string{"0.5"}, kv...)
	if !bytes.Equal(cached[0], rebuilt[0]) {
		t.Fatal("cached-tree viewer differs from the rebuilding one")
	}
	if _, ps := rrt.DMS.AggregateStats(); ps.DerivedPuts == 0 {
		t.Error("real clock: the viewer cached no tree")
	}
	if _, ps := vrt.DMS.AggregateStats(); ps.DerivedPuts != 0 || ps.DerivedMisses != 0 {
		t.Errorf("virtual clock: the viewer consulted the tree cache (%+v)", ps)
	}
}

// TestIndexedSliderSweepWarmIsCheaper is the interaction the cached trees
// exist for: a user dragging the iso slider re-queries the same warm blocks
// with different iso values. Served from the DMS, the warm queries build no
// tree at all — every lookup after the cold query hits — and each query
// returns the bytes of the rebuilding sweep.
func TestIndexedSliderSweepWarmIsCheaper(t *testing.T) {
	isos := []string{"420", "500", "580", "660"}
	kv := []string{"dataset", "engine", "workers", "4", "field", "pressure", "ex", "-5"}
	rebuilt, _, _ := viewerSweep(t, vclock.NewVirtual(), dataset.Engine(), 4, isos, kv...)
	cached, misses, _ := viewerSweep(t, vclock.NewReal(), dataset.Engine(), 4, isos, kv...)
	if misses[0] == 0 {
		t.Fatal("the cold query found its trees cached: sweep degenerate")
	}
	if last := misses[len(misses)-1]; last != misses[0] {
		t.Errorf("warm queries rebuilt %d trees, want 0", last-misses[0])
	}
	for i := range isos {
		if !bytes.Equal(cached[i], rebuilt[i]) {
			t.Errorf("iso %s: cached-tree sweep differs from the rebuilding one", isos[i])
		}
	}
}

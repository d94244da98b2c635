package commands

import (
	"testing"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
)

// TestIndexRideAlongFollowsTheRequest: an indexed vortex request makes its
// prefetched blocks arrive with their gradient index built; the un-indexed
// request after it on the same workers prefetches a fresh time step and must
// build nothing.
func TestIndexRideAlongFollowsTheRequest(t *testing.T) {
	var before dms.ProxyStats
	rt := harness(t, dataset.Engine(), 2, func(cl *core.Client, rt *core.Runtime) {
		kv := []string{"dataset", "engine", "workers", "2", "lambda2", "-1000"}
		if _, err := cl.Run("vortex.dataman", params(append(kv, "step", "0", "index", "1")...)); err != nil {
			t.Error(err)
		}
		_, before = rt.DMS.AggregateStats()
		if _, err := cl.Run("vortex.dataman", params(append(kv, "step", "1", "index", "0")...)); err != nil {
			t.Error(err)
		}
	})
	_, after := rt.DMS.AggregateStats()
	if before.DerivedPuts == 0 {
		t.Fatal("the indexed request cached no derived entity — test degenerate")
	}
	if after.PrefetchDone == before.PrefetchDone {
		t.Fatal("the un-indexed request prefetched nothing — test degenerate")
	}
	if after.DerivedPuts != before.DerivedPuts || after.DerivedMisses != before.DerivedMisses {
		t.Fatalf("index=0 after index=1 touched the derived cache: puts %d → %d, misses %d → %d",
			before.DerivedPuts, after.DerivedPuts, before.DerivedMisses, after.DerivedMisses)
	}
}

package dms

import (
	"runtime"
	"testing"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/prefetch"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// coldStep writes one propfan scale-1 time step (144 blocks) as block files
// and returns a real-clock, unpriced DMS over them with two proxies and no
// system prefetching, plus the step's block IDs: the shape of the served
// cold sweep's miss path without its request machinery.
func coldStep(tb testing.TB) (*Proxy, []grid.BlockID) {
	tb.Helper()
	desc := dataset.Propfan()
	be := &storage.DirBackend{Root: tb.TempDir()}
	ids := make([]grid.BlockID, desc.Blocks)
	for b := range ids {
		blk := desc.Generate(0, b)
		if err := be.Put(blk); err != nil {
			tb.Fatal(err)
		}
		ids[b] = blk.ID
	}
	clk := vclock.NewReal()
	dev := storage.NewDevice("dir", be, clk, 0, 0, 2)
	cfg := DefaultConfig()
	cfg.Prices = Prices{}
	srv := NewServer(clk, cfg, &loader.DeviceSource{Dev: dev})
	p := srv.NewProxy("n0", prefetch.None{})
	srv.NewProxy("n1", prefetch.None{})
	return p, ids
}

// mallocs counts the heap allocations fn makes, on one P as
// testing.AllocsPerRun does.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDMSMissAllocations pins the allocation budget of the DMS read path: a
// miss allocates what it caches (the decoded block — its struct, coordinate,
// velocity and scalar arrays, field map and names — and the cache entry) and
// little else; a hit allocates nothing. A formatted item name, a copied peer
// list, a per-fetch registry map, a ranked-candidate slice or an os.ReadFile
// buffer on this path each cost every one of the cold sweep's misses.
func TestDMSMissAllocations(t *testing.T) {
	p, ids := coldStep(t)
	get := func() {
		for _, id := range ids {
			if _, err := p.Get(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up: the names resolve, the maps and recency lists reach size.
	get()
	p.DropCaches()
	get()
	p.DropCaches()

	miss := float64(mallocs(get)) / float64(len(ids))
	hit := float64(mallocs(get)) / float64(len(ids))
	t.Logf("%.1f allocations per miss, %.1f per hit", miss, hit)
	// sync.Pool randomly drops puts under -race, so the pooled read buffer
	// is reallocated now and then: the miss bound is exact only without it.
	if miss > 12 && !raceEnabled {
		t.Errorf("a DMS miss makes %.1f allocations, want ≤ 12", miss)
	}
	if hit != 0 {
		t.Errorf("a DMS hit makes %.1f allocations, want 0", hit)
	}
}

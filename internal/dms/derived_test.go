package dms

import (
	"testing"
	"time"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// treeFor builds the pressure BSP tree of a tiny block — the derived entity
// the viewer caches.
func treeFor(t *testing.T, id grid.BlockID) *grid.BSPTree {
	t.Helper()
	tree := grid.BuildBSP(blockOfSize(t, id), "pressure")
	tree.ReleaseBlock()
	return tree
}

func TestDerivedItemNaming(t *testing.T) {
	id := tinyID(0, 3)
	names := []ItemName{
		BlockItem(id),
		CoarseBlockItem(id, 1),
		BSPItem(id, "pressure"),
		BSPItem(id, "lambda2"),
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n.String()] {
			t.Fatalf("duplicate item name %q", n.String())
		}
		seen[n.String()] = true
	}
	// A derived entity shares its block's source: kind "bsp:<field>".
	want := ItemName{Block: id, kind: kindBSP, Field: "pressure"}
	if BSPItem(id, "pressure") != want || want.String() != "tiny/t000/b003:bsp:pressure:tree" {
		t.Fatalf("BSPItem = %+v, want %+v", BSPItem(id, "pressure"), want)
	}
}

// TestDerivedEvictedBeforeDemandBlocks pins the dual-policy victim order:
// under capacity pressure a derived entity is sacrificed before any demand
// block, even when the derived entity is the most recently used item.
func TestDerivedEvictedBeforeDemandBlocks(t *testing.T) {
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	c := NewCache("t", 2*one, NewLRU())
	blk0, blk1, idx := ItemID(1), ItemID(2), ItemID(3)

	c.Put(idx, treeFor(t, tinyID(0, 0)), false)
	c.Put(blk0, blockOfSize(t, tinyID(0, 0)), false)
	if _, ok := c.Get(idx); !ok { // idx is now the most recently used item
		t.Fatal("tree not cached")
	}
	ev := c.Put(blk1, blockOfSize(t, tinyID(0, 1)), false)
	if len(ev) != 1 || ev[0].ID != idx {
		t.Fatalf("evicted %+v, want the derived tree despite its recency", ev)
	}
	if _, ok := c.Peek(blk0); !ok {
		t.Fatal("demand block evicted while a derived entity was resident")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.DerivedEvictions != 1 {
		t.Fatalf("stats = %+v, want the eviction counted as derived", st)
	}
	if c.Used() != 2*one {
		t.Fatalf("byte accounting off: used %d, want %d", c.Used(), 2*one)
	}
}

// TestDerivedOnlyCacheFallsBackToBlocks: when no derived entity is resident,
// pressure falls on the demand blocks as before.
func TestDerivedEvictionFallsBackToBlocks(t *testing.T) {
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	c := NewCache("t", 2*one, NewLRU())
	c.Put(1, blockOfSize(t, tinyID(0, 0)), false)
	c.Put(2, blockOfSize(t, tinyID(0, 1)), false)
	ev := c.Put(3, blockOfSize(t, tinyID(0, 2)), false)
	if len(ev) != 1 || ev[0].ID != ItemID(1) {
		t.Fatalf("evicted %+v, want the LRU demand block", ev)
	}
	if c.Stats().DerivedEvictions != 0 {
		t.Fatal("block eviction miscounted as derived")
	}
}

// TestDerivedEvictionReleasesBudget checks the shared-budget accounting:
// admitting, evicting and removing derived entities reserve and release the
// exact byte sizes.
func TestDerivedEvictionReleasesBudget(t *testing.T) {
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	tree := treeFor(t, tinyID(0, 0))
	budget := NewBudget(2 * one)
	c := NewCache("t", 8*one, NewLRU()) // capacity ample: only the budget binds
	c.Budget = budget

	c.Put(1, tree, false)
	c.Put(2, blockOfSize(t, tinyID(0, 0)), false)
	if got := budget.Stats().Used; got != one+tree.SizeBytes() {
		t.Fatalf("budget used %d, want %d", got, one+tree.SizeBytes())
	}
	// The next block overflows the budget by exactly the tree's bytes: the
	// retry loop must evict the derived tree — not the resident demand
	// block — release its bytes, and then admit the block.
	_, ok := c.PutOK(3, blockOfSize(t, tinyID(0, 1)), false)
	if !ok {
		t.Fatal("insert refused although evicting the tree makes room")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.DerivedEvictions != 1 {
		t.Fatalf("stats = %+v, want exactly one eviction, of the derived tree", st)
	}
	if _, resident := c.Peek(2); !resident {
		t.Fatal("demand block sacrificed while a derived entity was resident")
	}
	if got := budget.Stats().Used; got != 2*one {
		t.Fatalf("budget used %d after eviction, want %d", got, 2*one)
	}
	c.Remove(2)
	c.Remove(3)
	if got := budget.Stats().Used; got != 0 {
		t.Fatalf("budget used %d after removals, want 0", got)
	}
}

func TestProxyDerivedPutGetStats(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, _ := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	name := BSPItem(tinyID(0, 0), "pressure")
	v.Go(func() {
		if _, ok := p.GetDerived(name); ok {
			t.Error("empty cache returned a derived entity")
		}
		if !p.PutDerived(name, treeFor(t, tinyID(0, 0))) {
			t.Error("unbudgeted put refused")
		}
		if _, ok := p.GetDerived(name); !ok {
			t.Error("derived entity not served from cache")
		}
	})
	v.Wait()
	st := p.Stats()
	if st.DerivedMisses != 1 || st.DerivedHits != 1 || st.DerivedPuts != 1 || st.DerivedUncached != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDerivedPeerTransfer: a derived entity built by one worker is served to
// another over the peer fabric instead of being rebuilt — the same §4
// cooperation the demand blocks get.
func TestDerivedPeerTransfer(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 10e6, 1)
	src := &loader.DeviceSource{Dev: dev, BytesFor: func(grid.BlockID) int64 { return 4096 }}
	srv := NewServer(v, cfg, src)
	p0 := srv.NewProxy("w0", nil)
	p0.Peers = srv
	p1 := srv.NewProxy("w1", nil)
	p1.Peers = srv
	name := BSPItem(tinyID(0, 0), "pressure")
	tree := treeFor(t, tinyID(0, 0))
	v.Go(func() {
		if !p0.PutDerived(name, tree) {
			t.Error("p0 put refused")
			return
		}
		e, ok := p1.GetDerived(name)
		if !ok {
			t.Error("p1 did not find the peer's derived entity")
			return
		}
		if e.(*grid.BSPTree) != tree {
			t.Error("peer transfer returned a different entity")
		}
		// Second get is a local hit: the transfer cached it at p1.
		if _, ok := p1.GetDerived(name); !ok {
			t.Error("transferred entity not cached locally")
		}
	})
	v.Wait()
	if st := p1.Stats(); st.DerivedPeerHits != 1 || st.DerivedHits != 2 {
		t.Fatalf("p1 stats = %+v, want 1 peer hit then 1 local hit", st)
	}
	_, ps := srv.AggregateStats()
	if ps.DerivedPeerHits != 1 || ps.DerivedPuts < 1 {
		t.Fatalf("aggregate stats missing derived counters: %+v", ps)
	}
}

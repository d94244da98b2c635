package dms

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/prefetch"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

func tinyID(step, block int) grid.BlockID {
	return grid.BlockID{Dataset: "tiny", Step: step, Block: block}
}

func TestItemNaming(t *testing.T) {
	n := BlockItem(tinyID(0, 3))
	if n.Block != tinyID(0, 3) || n.String() != "tiny/t000/b003:block:vrb" {
		t.Fatalf("name = %+v", n)
	}
	c := CoarseBlockItem(tinyID(0, 3), 2)
	if c.Level != 2 || c.String() != "tiny/t000/b003:block:vrb?level=2" {
		t.Fatalf("coarse name = %q", c)
	}
	if CoarseBlockItem(tinyID(0, 3), 0) != n {
		t.Fatal("level 0 must equal the full-resolution name")
	}
	if n.String() == c.String() {
		t.Fatal("distinct items from the same source must have distinct names")
	}
}

func TestNameServerAssignsStableIDs(t *testing.T) {
	s := NewNameServer()
	a := s.Resolve(BlockItem(tinyID(0, 0)))
	b := s.Resolve(BlockItem(tinyID(0, 1)))
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := s.Resolve(BlockItem(tinyID(0, 0))); got != a {
		t.Fatal("resolution not stable")
	}
}

func TestResolverCachesLocally(t *testing.T) {
	s := NewNameServer()
	r := NewResolver(s)
	id, remote := r.Resolve(BlockItem(tinyID(0, 0)))
	if !remote {
		t.Fatal("first resolution must be remote")
	}
	id2, remote := r.Resolve(BlockItem(tinyID(0, 0)))
	if remote || id2 != id {
		t.Fatal("second resolution must be local and stable")
	}
}

func blockOfSize(t *testing.T, id grid.BlockID) *grid.Block {
	t.Helper()
	return dataset.Tiny().Generate(id.Step, id.Block)
}

func TestCacheHitMissAndEviction(t *testing.T) {
	b0 := blockOfSize(t, tinyID(0, 0))
	one := b0.SizeBytes()
	c := NewCache("t", 2*one, NewLRU())
	item0, item1, item2 := ItemID(1), ItemID(2), ItemID(3)

	if _, ok := c.Get(item0); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(item0, blockOfSize(t, tinyID(0, 0)), false)
	c.Put(item1, blockOfSize(t, tinyID(0, 1)), false)
	if _, ok := c.Get(item0); !ok {
		t.Fatal("expected hit")
	}
	// Inserting a third evicts the LRU item (item1).
	ev := c.Put(item2, blockOfSize(t, tinyID(0, 2)), false)
	if len(ev) != 1 || ev[0].ID != item1 {
		t.Fatalf("evicted = %+v, want item1", ev)
	}
	if _, ok := c.Get(item1); ok {
		t.Fatal("evicted item still cached")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 2 || c.Used() != 2*one {
		t.Fatalf("len=%d used=%d", c.Len(), c.Used())
	}
}

func TestCacheRejectsOversizedItem(t *testing.T) {
	b := blockOfSize(t, tinyID(0, 0))
	c := NewCache("t", b.SizeBytes()-1, NewLRU())
	if ev := c.Put(1, b, false); ev != nil {
		t.Fatal("oversized put evicted items")
	}
	if c.Stats().RejectedLarge != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestCachePrefetchAccounting(t *testing.T) {
	c := NewCache("t", 1<<30, NewFBR())
	c.Put(1, blockOfSize(t, tinyID(0, 0)), true)
	st := c.Stats()
	if st.PrefetchPuts != 1 || st.PrefetchUsed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	c.Get(1)
	c.Get(1)
	st = c.Stats()
	if st.PrefetchUsed != 1 {
		t.Fatalf("PrefetchUsed = %d, want exactly 1", st.PrefetchUsed)
	}
}

func TestCachePeekHasNoSideEffects(t *testing.T) {
	c := NewCache("t", 1<<30, NewLRU())
	c.Put(1, blockOfSize(t, tinyID(0, 0)), false)
	before := c.Stats()
	if _, ok := c.Peek(1); !ok {
		t.Fatal("peek missed")
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("peek hit absent item")
	}
	if c.Stats() != before {
		t.Fatal("peek changed statistics")
	}
}

func TestCacheDuplicatePutKeepsOneCopy(t *testing.T) {
	c := NewCache("t", 1<<30, NewLRU())
	b := blockOfSize(t, tinyID(0, 0))
	c.Put(1, b, false)
	c.Put(1, b, false)
	if c.Len() != 1 || c.Used() != b.SizeBytes() {
		t.Fatalf("len=%d used=%d after duplicate put", c.Len(), c.Used())
	}
}

func TestTieredSpillAndPromote(t *testing.T) {
	v := vclock.NewVirtual()
	b0 := blockOfSize(t, tinyID(0, 0))
	one := b0.SizeBytes()
	l1 := NewCache("L1", one, NewLRU()) // holds exactly 1 block
	l2 := NewCache("L2", 10*one, NewLRU())
	tc := &Tiered{
		Clock:       v,
		L1:          l1,
		L2:          l2,
		SpillCost:   func(int64) time.Duration { return time.Millisecond },
		PromoteCost: func(int64) time.Duration { return 2 * time.Millisecond },
	}
	v.Go(func() {
		tc.Put(1, blockOfSize(t, tinyID(0, 0)), false)
		tc.Put(2, blockOfSize(t, tinyID(0, 1)), false) // spills item 1 to L2
		if l2.Len() != 1 {
			t.Errorf("L2 len = %d, want 1 after spill", l2.Len())
		}
		// Getting item 1 promotes it back (charging PromoteCost) and spills
		// item 2.
		if _, ok := tc.Get(1); !ok {
			t.Error("item 1 lost")
		}
		if _, ok := l1.Peek(1); !ok {
			t.Error("item 1 not promoted to L1")
		}
		if _, ok := tc.Peek(2); !ok {
			t.Error("item 2 vanished")
		}
	})
	v.Wait()
	// Costs: spill(1) + promote(1) + spill(2) = 1 + 2 + 1 ms.
	if v.Now() != 4*time.Millisecond {
		t.Fatalf("charged %v, want 4ms", v.Now())
	}
}

func TestTieredWithoutL2(t *testing.T) {
	v := vclock.NewVirtual()
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	tc := &Tiered{Clock: v, L1: NewCache("L1", one, NewLRU())}
	tc.Put(1, blockOfSize(t, tinyID(0, 0)), false)
	tc.Put(2, blockOfSize(t, tinyID(0, 1)), false)
	if _, ok := tc.Get(1); ok {
		t.Fatal("item survived eviction without an L2")
	}
	tc.Clear()
	if _, ok := tc.Peek(2); ok {
		t.Fatal("clear did not empty the cache")
	}
}

// testServer builds a DMS server over a simulated disk holding the tiny
// data set.
func testServer(v vclock.Clock, cfg Config) (*Server, *storage.Device) {
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 10e6, 1)
	src := &loader.DeviceSource{Dev: dev, BytesFor: func(grid.BlockID) int64 { return 4096 }}
	return NewServer(v, cfg, src), dev
}

func TestProxyGetCachesBlocks(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, dev := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	v.Go(func() {
		b1, err := p.Get(tinyID(0, 0))
		if err != nil {
			t.Error(err)
			return
		}
		b2, err := p.Get(tinyID(0, 0))
		if err != nil || b2 != b1 {
			t.Error("second get did not come from cache")
		}
	})
	v.Wait()
	if dev.Stats().Loads != 1 {
		t.Fatalf("device loads = %d, want 1", dev.Stats().Loads)
	}
	st := p.Stats()
	if st.DemandRequests != 2 || st.DemandLoads != 1 {
		t.Fatalf("proxy stats = %+v", st)
	}
}

func TestProxyChargesNameAndDecideCosts(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 3 * time.Millisecond
	cfg.NameCost = 5 * time.Millisecond
	cfg.LocalDiskBandwidth = 0
	srv, _ := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	v.Go(func() {
		p.Get(tinyID(0, 0))
	})
	v.Wait()
	// 5ms name + 3ms decide + 1ms latency + 4096B/10MBps ≈ 0.41ms transfer.
	min := 9 * time.Millisecond
	if v.Now() < min {
		t.Fatalf("total %v, want ≥ %v", v.Now(), min)
	}
	if p.Stats().RemoteResolves != 1 {
		t.Fatalf("RemoteResolves = %d", p.Stats().RemoteResolves)
	}
}

func TestProxyPrefetchOverlapsWithCompute(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, _ := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	// Load cost per block: 1ms latency + 4096/10e6 s ≈ 1.41ms.
	v.Go(func() {
		p.Prefetch(tinyID(0, 1))
		v.Sleep(50 * time.Millisecond) // simulated compute, overlapping the load
		start := v.Now()
		if _, err := p.Get(tinyID(0, 1)); err != nil {
			t.Error(err)
		}
		if wait := v.Now() - start; wait > time.Millisecond {
			t.Errorf("demand get waited %v despite completed prefetch", wait)
		}
	})
	v.Wait()
	st := p.Stats()
	if st.PrefetchIssued != 1 || st.PrefetchDone != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxyDemandWaitsOnInflightPrefetch(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, dev := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	v.Go(func() {
		p.Prefetch(tinyID(0, 2))
		// Demand the same block immediately: must wait for the in-flight
		// load, not start a second one.
		if _, err := p.Get(tinyID(0, 2)); err != nil {
			t.Error(err)
		}
	})
	v.Wait()
	if dev.Stats().Loads != 1 {
		t.Fatalf("device loads = %d, want 1 (no duplicate load)", dev.Stats().Loads)
	}
	if p.Stats().WaitedInflight == 0 {
		t.Fatal("demand did not register the in-flight wait")
	}
}

func TestProxySystemPrefetchViaOBL(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, _ := testServer(v, cfg)
	pf := prefetch.NewOBL(prefetch.FileOrder(2, 4))
	p := srv.NewProxy("w0", pf)
	v.Go(func() {
		if _, err := p.Get(tinyID(0, 0)); err != nil {
			t.Error(err)
		}
	})
	v.Wait()
	if p.Stats().PrefetchIssued == 0 {
		t.Fatal("OBL issued no system prefetch")
	}
	// The prefetched successor must now be cached.
	item, _ := p.Resolver.Resolve(BlockItem(tinyID(0, 1)))
	if _, ok := p.Cache.Peek(item); !ok {
		t.Fatal("successor block not in cache after system prefetch")
	}
}

func TestPeerTransferBetweenProxies(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	// Make the disk very slow so the peer path clearly wins.
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, time.Second, 1e6, 1)
	src := &loader.DeviceSource{Dev: dev, BytesFor: func(grid.BlockID) int64 { return 4096 }}
	srv := NewServer(v, cfg, src)
	p0 := srv.NewProxy("w0", nil)
	p1 := srv.NewProxy("w1", nil)
	v.Go(func() {
		if _, err := p0.Get(tinyID(0, 0)); err != nil { // p0 pays the disk
			t.Error(err)
			return
		}
		mark := v.Now()
		if _, err := p1.Get(tinyID(0, 0)); err != nil { // p1 should use the peer
			t.Error(err)
			return
		}
		if took := v.Now() - mark; took >= time.Second {
			t.Errorf("peer transfer took %v: fell back to disk", took)
		}
	})
	v.Wait()
	if dev.Stats().Loads != 1 {
		t.Fatalf("disk loads = %d, want 1 (second load from peer)", dev.Stats().Loads)
	}
}

func TestGetCoarseCachesPerLevel(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, dev := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	v.Go(func() {
		c1, err := p.GetCoarse(tinyID(0, 0), 1)
		if err != nil {
			t.Error(err)
			return
		}
		full, _ := p.GetCoarse(tinyID(0, 0), 0)
		if c1.NumNodes() >= full.NumNodes() {
			t.Error("coarse level not smaller than full block")
		}
		c1b, _ := p.GetCoarse(tinyID(0, 0), 1)
		if c1b != c1 {
			t.Error("coarse level not served from cache")
		}
	})
	v.Wait()
	if dev.Stats().Loads != 1 {
		t.Fatalf("device loads = %d, want 1", dev.Stats().Loads)
	}
}

func TestDropAllCachesForcesReload(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, dev := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	v.Go(func() {
		p.Get(tinyID(0, 0))
		srv.DropAllCaches()
		p.Get(tinyID(0, 0))
	})
	v.Wait()
	if dev.Stats().Loads != 2 {
		t.Fatalf("loads = %d, want 2 after cache drop", dev.Stats().Loads)
	}
}

func TestAggregateStats(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, _ := testServer(v, cfg)
	p0 := srv.NewProxy("w0", nil)
	p1 := srv.NewProxy("w1", nil)
	v.Go(func() {
		p0.Get(tinyID(0, 0))
		p0.Get(tinyID(0, 0))
		p1.Get(tinyID(0, 1))
	})
	v.Wait()
	cs, ps := srv.AggregateStats()
	if ps.DemandRequests != 3 {
		t.Fatalf("DemandRequests = %d", ps.DemandRequests)
	}
	if cs.Hits != 1 {
		t.Fatalf("aggregate hits = %d, want 1", cs.Hits)
	}
	if len(srv.Proxies()) != 2 {
		t.Fatal("proxy registry wrong")
	}
}

func TestProxiesConcurrentHammer(t *testing.T) {
	// Many workers hammer overlapping blocks with demand gets and
	// prefetches; the DMS must stay consistent (no duplicate loads beyond
	// coordination races, no lost blocks).
	v := vclock.NewVirtual()
	cfg := DefaultConfig()
	cfg.DecideCost = 0
	cfg.NameCost = 0
	srv, _ := testServer(v, cfg)
	var proxies []*Proxy
	for i := 0; i < 6; i++ {
		proxies = append(proxies, srv.NewProxy(fmt.Sprintf("w%d", i), nil))
	}
	for _, p := range proxies {
		p := p
		v.Go(func() {
			for rep := 0; rep < 3; rep++ {
				for s := 0; s < 2; s++ {
					for b := 0; b < 4; b++ {
						p.Prefetch(tinyID(s, (b+1)%4))
						blk, err := p.Get(tinyID(s, b))
						if err != nil {
							t.Errorf("get: %v", err)
							return
						}
						if blk.ID != tinyID(s, b) {
							t.Errorf("wrong block: %v", blk.ID)
							return
						}
					}
				}
			}
		})
	}
	v.Wait()
	_, ps := srv.AggregateStats()
	if ps.DemandRequests != 6*3*2*4 {
		t.Fatalf("demand requests = %d", ps.DemandRequests)
	}
}

func TestCacheAgainstReferenceModel(t *testing.T) {
	// Property: under random get/put sequences the cache's hit/miss
	// accounting and content must match a naive reference model driven by
	// the same policy decisions.
	rng := rand.New(rand.NewSource(99))
	block := blockOfSize(t, tinyID(0, 0))
	one := block.SizeBytes()
	const slots = 5
	c := NewCache("model", slots*one, NewLRU())
	ref := map[ItemID]bool{}
	var refHits, refMisses int64
	for op := 0; op < 5000; op++ {
		id := ItemID(rng.Intn(12) + 1)
		if rng.Intn(2) == 0 {
			_, ok := c.Get(id)
			if ok != ref[id] {
				t.Fatalf("op %d: Get(%d) = %v, model says %v", op, id, ok, ref[id])
			}
			if ok {
				refHits++
			} else {
				refMisses++
			}
		} else {
			ev := c.Put(id, block, false)
			for _, e := range ev {
				delete(ref, e.ID)
			}
			ref[id] = true
			if len(ref) > slots {
				t.Fatalf("op %d: model holds %d items, capacity %d", op, len(ref), slots)
			}
			if c.Len() != len(ref) {
				t.Fatalf("op %d: cache len %d, model %d", op, c.Len(), len(ref))
			}
		}
	}
	st := c.Stats()
	if st.Hits != refHits || st.Misses != refMisses {
		t.Fatalf("stats = %d/%d, model = %d/%d", st.Hits, st.Misses, refHits, refMisses)
	}
}

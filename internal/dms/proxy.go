package dms

import (
	"errors"
	"sync"
	"time"

	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/prefetch"
	"viracocha/internal/vclock"
)

// ProxyStats counts proxy-level DMS activity.
type ProxyStats struct {
	DemandRequests  int64 // Get calls
	DemandLoads     int64 // Gets that had to load from a source
	PrefetchIssued  int64 // asynchronous prefetches started
	PrefetchDone    int64 // prefetches that completed successfully
	PrefetchErrors  int64
	PrefetchSkipped int64 // prefetches dropped because a peer is fetching
	WaitedInflight  int64 // demand requests that overlapped an in-flight load
	RemoteResolves  int64 // name resolutions that consulted the server
	PrefetchShed    int64 // prefetches shed because the memory budget was under pressure
	DemandUncached  int64 // demand loads whose block could not be cached (degraded path)
	DerivedHits     int64 // GetDerived calls answered from a cache (local or peer)
	DerivedMisses   int64 // GetDerived calls that found nothing — caller rebuilds
	DerivedPeerHits int64 // GetDerived calls answered by another proxy's cache
	DerivedPuts     int64 // derived entities offered to the cache
	DerivedUncached int64 // derived entities the memory budget refused to admit
}

// EntityPeers finds derived entities in other proxies' caches. Demand blocks
// travel through the loader's peer source (addressable by BlockID); derived
// entities are addressable only by ItemID, so they need their own
// cooperative-cache path. The data-manager server implements it.
type EntityPeers interface {
	FetchEntity(self *Proxy, item ItemID) (Entity, bool)
}

// Coordinator is the central fetch registry at the data-manager server:
// proxies announce what they are loading so the fleet does not pull the same
// block over the interconnect several times. Prefetches yield to an ongoing
// fetch anywhere (the block will be a cheap peer transfer afterwards);
// demand fetches always proceed.
type Coordinator interface {
	TryBeginFetch(item ItemID, node string) bool
	EndFetch(item ItemID, node string)
}

// Proxy is the per-node data proxy (paper §4.1): a black box answering data
// requests out of its two-tier cache, loading through the adaptive strategy
// selector on misses, and running the system prefetcher on the observed
// request stream. Proxies are not bound to work groups, so peer transfers
// cross group boundaries.
type Proxy struct {
	Node     string
	Clock    vclock.Clock
	Cache    *Tiered
	Resolver *Resolver
	Loader   *loader.Selector
	// Prefetcher is the system prefetch policy; prefetch.None{} disables
	// system prefetching.
	Prefetcher prefetch.Prefetcher
	// NameCost is the communication cost of a remote name resolution.
	NameCost time.Duration
	// Coordinator, when set, deduplicates fetches across proxies.
	Coordinator Coordinator
	// Budget is the server-wide memory budget (nil = unlimited); the
	// prefetcher consults it to shed speculation before demand loads feel
	// the pressure.
	Budget *Budget
	// Peers, when set, lets GetDerived pull derived entities out of other
	// proxies' caches (a charged peer transfer).
	Peers EntityPeers
	// OnDemand, when set, runs after every successful demand Get (cache hit
	// or load). The data-manager server uses it to maintain the group-wide
	// demand hot-set that re-warms rejoined nodes' caches.
	OnDemand func(id grid.BlockID)

	mu       sync.Mutex
	inflight map[ItemID]*vclock.Gate
	stats    ProxyStats
}

// NewProxy wires a proxy from its parts. Prefetcher may be nil (no system
// prefetching).
func NewProxy(node string, c vclock.Clock, cache *Tiered, res *Resolver, sel *loader.Selector, pf prefetch.Prefetcher) *Proxy {
	if pf == nil {
		pf = prefetch.None{}
	}
	return &Proxy{
		Node:       node,
		Clock:      c,
		Cache:      cache,
		Resolver:   res,
		Loader:     sel,
		Prefetcher: pf,
		inflight:   map[ItemID]*vclock.Gate{},
	}
}

// resolve translates a name, charging the round trip when the central name
// server had to be consulted.
func (p *Proxy) resolve(n ItemName) ItemID {
	id, remote := p.Resolver.Resolve(n)
	if remote {
		p.mu.Lock()
		p.stats.RemoteResolves++
		p.mu.Unlock()
		p.Clock.Sleep(p.NameCost)
	}
	return id
}

// Get returns the block, from cache when possible, loading it otherwise. It
// records the demand request with the prefetcher and triggers system
// prefetches for the suggested successors.
func (p *Proxy) Get(id grid.BlockID) (*grid.Block, error) {
	item := p.resolve(BlockItem(id))
	p.mu.Lock()
	p.stats.DemandRequests++
	p.mu.Unlock()
	for {
		if e, ok := p.Cache.Get(item); ok {
			b := e.(*grid.Block) // a BlockItem name always caches a block
			p.Prefetcher.Record(id, false)
			if p.OnDemand != nil {
				p.OnDemand(id)
			}
			p.systemPrefetch(id)
			return b, nil
		}
		// Someone (usually a prefetch) may already be loading this item:
		// wait for it rather than loading twice.
		p.mu.Lock()
		if g := p.inflight[item]; g != nil {
			p.stats.WaitedInflight++
			p.mu.Unlock()
			g.Wait()
			continue
		}
		g := vclock.NewGate(p.Clock)
		p.inflight[item] = g
		p.mu.Unlock()

		if p.Coordinator != nil {
			p.Coordinator.TryBeginFetch(item, p.Node) // demand always proceeds
		}
		b, _, err := p.Loader.Load(id)
		cached := false
		if err == nil {
			cached = p.Cache.Put(item, b, false)
		}
		p.mu.Lock()
		delete(p.inflight, item)
		if err == nil {
			p.stats.DemandLoads++
			if !cached {
				p.stats.DemandUncached++
			}
		}
		p.mu.Unlock()
		if p.Coordinator != nil {
			p.Coordinator.EndFetch(item, p.Node)
		}
		g.Open()
		if err != nil {
			return nil, err
		}
		p.Prefetcher.Record(id, true)
		if p.OnDemand != nil {
			p.OnDemand(id)
		}
		p.systemPrefetch(id)
		return b, nil
	}
}

// systemPrefetch asks the policy for successors of id and starts
// asynchronous loads for the ones not already cached or in flight.
func (p *Proxy) systemPrefetch(id grid.BlockID) {
	for _, s := range p.Prefetcher.Suggest(id) {
		p.Prefetch(s)
	}
}

// prefetchShedAt is the shared memory budget's pressure (fraction in use)
// at or above which speculative prefetches are shed: past it a prefetch
// would only evict what requests are about to read.
const prefetchShedAt = 0.9

// Prefetch starts an asynchronous load of id into the cache (both the
// system prefetcher and command code prefetches use it). It returns
// immediately; a later Get overlaps with or waits on the load.
func (p *Proxy) Prefetch(id grid.BlockID) {
	// Load shedding: under memory pressure, speculation is the first thing
	// to go — the budget's headroom is kept for demand loads.
	if p.Budget.Pressure() >= prefetchShedAt {
		p.mu.Lock()
		p.stats.PrefetchShed++
		p.mu.Unlock()
		p.Budget.NoteShed()
		return
	}
	item := p.resolve(BlockItem(id))
	if _, ok := p.Cache.Peek(item); ok {
		return
	}
	p.mu.Lock()
	if p.inflight[item] != nil {
		p.mu.Unlock()
		return
	}
	if p.Coordinator != nil && !p.Coordinator.TryBeginFetch(item, p.Node) {
		p.stats.PrefetchSkipped++
		p.mu.Unlock()
		return
	}
	g := vclock.NewGate(p.Clock)
	p.inflight[item] = g
	p.stats.PrefetchIssued++
	p.mu.Unlock()
	p.Clock.Go(func() {
		b, _, err := p.Loader.LoadBackground(id)
		if err == nil {
			p.Cache.Put(item, b, true)
		}
		p.mu.Lock()
		delete(p.inflight, item)
		switch {
		case err == nil:
			p.stats.PrefetchDone++
		case errors.Is(err, loader.ErrBusy):
			p.stats.PrefetchSkipped++
		default:
			p.stats.PrefetchErrors++
		}
		p.mu.Unlock()
		if p.Coordinator != nil {
			p.Coordinator.EndFetch(item, p.Node)
		}
		g.Open()
	})
}

// GetCoarse returns the block subsampled to the given multi-resolution
// level, caching each level as its own data item (same source, different
// parameter list — the reason the naming service exists).
func (p *Proxy) GetCoarse(id grid.BlockID, level int) (*grid.Block, error) {
	if level <= 0 {
		return p.Get(id)
	}
	item := p.resolve(CoarseBlockItem(id, level))
	if e, ok := p.Cache.Get(item); ok {
		return e.(*grid.Block), nil
	}
	full, err := p.Get(id)
	if err != nil {
		return nil, err
	}
	c := full.Coarsen(level)
	p.Cache.Put(item, c, false)
	return c, nil
}

// GetDerived returns a cached derived entity (the viewer's BSP trees) by
// name: local tiers first, then other proxies' caches — derived data is
// peer-transferable like any entity, so a tree one worker built serves the
// others. A miss means no proxy holds it; the caller rebuilds and offers the
// result back through PutDerived.
func (p *Proxy) GetDerived(n ItemName) (Entity, bool) {
	item := p.resolve(n)
	if e, ok := p.Cache.Get(item); ok {
		p.mu.Lock()
		p.stats.DerivedHits++
		p.mu.Unlock()
		return e, true
	}
	if p.Peers != nil {
		if e, ok := p.Peers.FetchEntity(p, item); ok {
			p.Cache.Put(item, e, false)
			p.mu.Lock()
			p.stats.DerivedHits++
			p.stats.DerivedPeerHits++
			p.mu.Unlock()
			return e, true
		}
	}
	p.mu.Lock()
	p.stats.DerivedMisses++
	p.mu.Unlock()
	return nil, false
}

// PutDerived offers a freshly built derived entity to the cache, reporting
// whether it was admitted. False means the memory budget refused it: the
// caller keeps using the entity for this request and the next request
// rebuilds — degraded, never over budget.
func (p *Proxy) PutDerived(n ItemName, e Entity) bool {
	ok := p.Cache.Put(p.resolve(n), e, false)
	p.mu.Lock()
	p.stats.DerivedPuts++
	if !ok {
		p.stats.DerivedUncached++
	}
	p.mu.Unlock()
	return ok
}

// Stats returns a copy of the proxy statistics.
func (p *Proxy) Stats() ProxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// UncachedLoads reports how many demand loads could not be cached (budget
// refusals): the degraded path. The core layer samples it around each Load
// to attribute degradation to requests.
func (p *Proxy) UncachedLoads() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats.DemandUncached
}

// DropCaches empties both cache tiers (cold-start experiments).
func (p *Proxy) DropCaches() { p.Cache.Clear() }

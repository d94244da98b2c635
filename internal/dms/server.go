package dms

import (
	"sync"
	"time"

	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/prefetch"
	"viracocha/internal/vclock"
)

// Prices are the modelled costs of the DMS read path: what the paper's
// machine paid in communication and local-disk time where this process pays
// a function call. They are charged to the virtual clock; the zero value is
// a real-clock runtime's, where reading costs what the storage device takes.
type Prices struct {
	// DecideCost is the round trip for asking the server which loading
	// strategy to use (charged per load).
	DecideCost time.Duration
	// NameCost is the round trip for a remote name resolution.
	NameCost time.Duration
	// PeerLatency and PeerBandwidth model the interconnect used for peer
	// transfers between proxies.
	PeerLatency   time.Duration
	PeerBandwidth float64
	// LocalDiskBandwidth models the node-local disk that backs the
	// secondary cache tier (spill/promote cost).
	LocalDiskBandwidth float64
}

// PaperPrices returns the prices used by the experiments: interconnect and
// local-disk parameters resembling the paper's SMP node.
func PaperPrices() Prices {
	return Prices{
		DecideCost:         200 * time.Microsecond,
		NameCost:           200 * time.Microsecond,
		PeerLatency:        100 * time.Microsecond,
		PeerBandwidth:      400e6,
		LocalDiskBandwidth: 80e6,
	}
}

// Config parameterizes the DMS for one runtime.
type Config struct {
	// L1Bytes and L2Bytes are the per-proxy primary and secondary cache
	// capacities; L2Bytes 0 disables the secondary cache.
	L1Bytes int64
	L2Bytes int64
	// PolicyName selects the replacement policy: "lru", "lfu" or "fbr".
	PolicyName string
	// Prices are the modelled read-path costs (zero value = unpriced).
	Prices
	// DisablePeer turns the cooperative peer-transfer source off (used by
	// the loading-strategy ablation).
	DisablePeer bool
	// MemBudget caps the total resident bytes across both cache tiers of
	// every proxy (0 = unlimited). Under pressure caches evict; when nothing
	// is left to evict blocks are served uncached rather than over budget.
	MemBudget int64
	// PrefetchShedAt is the MemBudget pressure above which proxies shed
	// speculative prefetches; <= 0 means 0.9.
	PrefetchShedAt float64
}

// DefaultConfig returns the configuration used by the experiments: 256 MB
// primary cache, 1 GB secondary cache with FBR replacement, and the paper's
// prices.
func DefaultConfig() Config {
	return Config{
		L1Bytes:        256 << 20,
		L2Bytes:        1 << 30,
		PolicyName:     "fbr",
		Prices:         PaperPrices(),
		PrefetchShedAt: 0.9,
	}
}

// Server is the centralized data-manager server residing at the scheduler
// node: it runs the name server, registers every proxy, constructs their
// adaptive loaders (including the peer-transfer source), and aggregates
// statistics.
type Server struct {
	Clock  vclock.Clock
	Names  *NameServer
	Config Config

	mu      sync.Mutex
	sources []loader.Source
	// proxies is copy-on-write: registering or dropping a proxy replaces
	// the slice, so a reader holding the header iterates without a copy.
	proxies []*Proxy
	// fetching maps an item to the one node registered as loading it.
	fetching map[ItemID]string
	budget   *Budget
	hot      []grid.BlockID // demand hot-set, most recent first, ≤ hotCap
}

// hotCap bounds the server's demand hot-set: the most recently demanded
// blocks across all proxies, kept small enough that re-warming a rejoined
// node's cache stays a short background errand rather than a bulk reload.
const hotCap = 32

// NewServer builds a data-manager server with the given base sources
// (devices such as the local disk and the network file server).
func NewServer(c vclock.Clock, cfg Config, sources ...loader.Source) *Server {
	return &Server{Clock: c, Names: NewNameServer(), Config: cfg, sources: sources,
		fetching: map[ItemID]string{}, budget: NewBudget(cfg.MemBudget)}
}

// Budget returns the server-wide memory budget (nil = unlimited).
func (s *Server) Budget() *Budget { return s.budget }

// AddSource registers an additional base source for proxies created later.
func (s *Server) AddSource(src loader.Source) {
	s.mu.Lock()
	s.sources = append(s.sources, src)
	s.mu.Unlock()
}

// NewProxy creates, registers and returns the data proxy for a node. Each
// proxy gets its own two-tier cache and an adaptive selector over the base
// sources plus a peer source covering all *other* proxies' caches.
func (s *Server) NewProxy(node string, pf prefetch.Prefetcher) *Proxy {
	cfg := s.Config
	l1 := NewCache(node+"/L1", cfg.L1Bytes, NewPolicy(cfg.PolicyName))
	l1.Budget = s.budget
	var l2 *Cache
	if cfg.L2Bytes > 0 {
		l2 = NewCache(node+"/L2", cfg.L2Bytes, NewPolicy(cfg.PolicyName))
		l2.Budget = s.budget
	}
	tiered := &Tiered{Clock: s.Clock, L1: l1, L2: l2}
	if cfg.LocalDiskBandwidth > 0 {
		cost := func(bytes int64) time.Duration {
			return time.Duration(float64(bytes) / cfg.LocalDiskBandwidth * float64(time.Second))
		}
		tiered.SpillCost = cost
		tiered.PromoteCost = cost
	}

	s.mu.Lock()
	base := append([]loader.Source(nil), s.sources...)
	s.mu.Unlock()

	sel := loader.NewSelector(s.Clock, cfg.DecideCost, base...)
	p := NewProxy(node, s.Clock, tiered, NewResolver(s.Names), sel, pf)
	p.NameCost = cfg.NameCost
	p.Coordinator = s
	p.Budget = s.budget
	p.PrefetchShedAt = cfg.PrefetchShedAt
	if !cfg.DisablePeer {
		sel.AddSource(s.peerSource(p))
		p.Peers = s
	}

	p.OnDemand = s.NoteDemand

	s.mu.Lock()
	s.proxies = append(s.proxies[:len(s.proxies):len(s.proxies)], p)
	s.mu.Unlock()
	return p
}

// peers returns the registered proxies. The slice is shared, never written:
// NewProxy and DropProxy replace it.
func (s *Server) peers() []*Proxy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proxies
}

// NoteDemand records a demand-block access in the server's bounded recency
// hot-set. Every proxy reports its demand stream here (wired in NewProxy), so
// the set reflects what the whole group is actively touching — the working
// set a freshly rejoined node should pull back into its cold cache.
func (s *Server) NoteDemand(id grid.BlockID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, h := range s.hot {
		if h == id {
			copy(s.hot[1:i+1], s.hot[:i])
			s.hot[0] = id
			return
		}
	}
	if len(s.hot) < hotCap {
		s.hot = append(s.hot, grid.BlockID{})
	}
	copy(s.hot[1:], s.hot)
	s.hot[0] = id
}

// HotSet returns a snapshot of the demand hot-set, most recent first. The
// core layer prefetches it through a rejoined node's new proxy to re-warm the
// cache off the request path.
func (s *Server) HotSet() []grid.BlockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]grid.BlockID(nil), s.hot...)
}

// DropProxy unregisters every proxy of a node that left the group (crash or
// decommission): the dead incarnation's cached bytes are credited back to the
// shared memory budget (Cache.Clear releases them), the proxy stops serving
// as a peer-transfer source, and any fetch registrations the node still held
// are cleared so survivors' prefetches are not deferred forever to a fetch
// that will never finish.
func (s *Server) DropProxy(node string) {
	s.mu.Lock()
	var kept, dropped []*Proxy
	for _, p := range s.proxies {
		if p.Node == node {
			dropped = append(dropped, p)
		} else {
			kept = append(kept, p)
		}
	}
	s.proxies = kept
	for item, owner := range s.fetching {
		if owner == node {
			delete(s.fetching, item)
		}
	}
	s.mu.Unlock()
	for _, p := range dropped {
		p.DropCaches()
	}
}

// peerSource builds the cooperative-cache source for proxy self: blocks
// available from any other proxy's cache, transferred over the modeled
// interconnect. The cooperative cache is greedy — no duplicate deletion,
// every proxy manages its cache independently (paper §4.3).
func (s *Server) peerSource(self *Proxy) loader.Source {
	find := func(id grid.BlockID) (*grid.Block, bool) {
		item := s.Names.Resolve(BlockItem(id))
		for _, q := range s.peers() {
			if q == self {
				continue
			}
			if e, ok := q.Cache.Peek(item); ok {
				if b, ok := e.(*grid.Block); ok {
					return b, true
				}
			}
		}
		return nil, false
	}
	return &loader.FuncSource{
		SourceName: "peer:" + self.Node,
		AvailFn: func(id grid.BlockID) bool {
			_, ok := find(id)
			return ok
		},
		CostFn: func(id grid.BlockID) time.Duration {
			b, ok := find(id)
			if !ok {
				return time.Hour
			}
			return s.peerCost(b.SizeBytes())
		},
		LoadFn: func(id grid.BlockID) (*grid.Block, int64, error) {
			b, ok := find(id)
			if !ok {
				return nil, 0, &PeerMissError{ID: id}
			}
			size := b.SizeBytes()
			s.Clock.Sleep(s.peerCost(size))
			return b, size, nil
		},
	}
}

// FetchEntity implements EntityPeers: it finds a derived entity in some
// other proxy's cache and charges the interconnect transfer for its size.
// Like the block peer source, the cooperative cache is greedy — no duplicate
// deletion (paper §4.3).
func (s *Server) FetchEntity(self *Proxy, item ItemID) (Entity, bool) {
	for _, q := range s.peers() {
		if q == self {
			continue
		}
		if e, ok := q.Cache.Peek(item); ok {
			s.Clock.Sleep(s.peerCost(e.SizeBytes()))
			return e, true
		}
	}
	return nil, false
}

func (s *Server) peerCost(bytes int64) time.Duration {
	d := s.Config.PeerLatency
	if s.Config.PeerBandwidth > 0 {
		d += time.Duration(float64(bytes) / s.Config.PeerBandwidth * float64(time.Second))
	}
	return d
}

// PeerMissError reports that a block vanished from all peer caches between
// the availability check and the transfer (eviction race); the selector
// falls back to the next source.
type PeerMissError struct{ ID grid.BlockID }

// Error implements error.
func (e *PeerMissError) Error() string {
	return "dms: " + e.ID.String() + " no longer in any peer cache"
}

// TryBeginFetch implements Coordinator: it registers node as fetching the
// item and reports false, registering nothing, when some other node is
// already fetching it. So an item has at most one registered fetcher.
func (s *Server) TryBeginFetch(item ItemID, node string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner, ok := s.fetching[item]; ok && owner != node {
		return false
	}
	s.fetching[item] = node
	return true
}

// EndFetch implements Coordinator: it ends node's registration, if it holds
// one.
func (s *Server) EndFetch(item ItemID, node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner, ok := s.fetching[item]; ok && owner == node {
		delete(s.fetching, item)
	}
}

// Proxies returns a snapshot of the registered proxies.
func (s *Server) Proxies() []*Proxy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Proxy(nil), s.proxies...)
}

// DropAllCaches clears every proxy's caches for cold-start experiments.
func (s *Server) DropAllCaches() {
	for _, p := range s.Proxies() {
		p.DropCaches()
	}
}

// AggregateStats sums cache and proxy statistics over all proxies.
func (s *Server) AggregateStats() (CacheStats, ProxyStats) {
	var cs CacheStats
	var ps ProxyStats
	for _, p := range s.Proxies() {
		l1 := p.Cache.L1.Stats()
		cs.Hits += l1.Hits
		cs.Misses += l1.Misses
		cs.Puts += l1.Puts
		cs.Evictions += l1.Evictions
		cs.BytesEvicted += l1.BytesEvicted
		cs.PrefetchPuts += l1.PrefetchPuts
		cs.PrefetchUsed += l1.PrefetchUsed
		cs.RejectedLarge += l1.RejectedLarge
		cs.RejectedBudget += l1.RejectedBudget
		cs.DerivedEvictions += l1.DerivedEvictions
		if l2 := p.Cache.L2; l2 != nil {
			cs.RejectedBudget += l2.Stats().RejectedBudget
		}
		st := p.Stats()
		ps.DemandRequests += st.DemandRequests
		ps.DemandLoads += st.DemandLoads
		ps.PrefetchIssued += st.PrefetchIssued
		ps.PrefetchDone += st.PrefetchDone
		ps.PrefetchErrors += st.PrefetchErrors
		ps.PrefetchSkipped += st.PrefetchSkipped
		ps.WaitedInflight += st.WaitedInflight
		ps.RemoteResolves += st.RemoteResolves
		ps.PrefetchShed += st.PrefetchShed
		ps.DemandUncached += st.DemandUncached
		ps.DerivedHits += st.DerivedHits
		ps.DerivedMisses += st.DerivedMisses
		ps.DerivedPeerHits += st.DerivedPeerHits
		ps.DerivedPuts += st.DerivedPuts
		ps.DerivedUncached += st.DerivedUncached
	}
	return cs, ps
}

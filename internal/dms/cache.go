package dms

import (
	"sync"
	"time"

	"viracocha/internal/vclock"
)

// Entity is anything the DMS can cache: demand-loaded grid blocks, and
// derived data computed from them — BSP trees, memoized results. The paper's
// DMS manages "data entities", not files (§4); the only thing a cache needs
// from one is its size.
type Entity interface {
	SizeBytes() int64
}

// IsDerived reports whether the entity is derived (re-computable from a
// block) rather than demand-loaded. Derived types opt in by declaring a
// DerivedEntity() marker method; under memory pressure the cache evicts
// derived entities before demand blocks, because rebuilding a tree is
// cheaper than re-reading a block from storage, and a derived entity never
// evicts a demand block.
func IsDerived(e Entity) bool {
	_, ok := e.(interface{ DerivedEntity() })
	return ok
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits             int64
	Misses           int64
	Puts             int64
	Evictions        int64
	BytesEvicted     int64
	PrefetchPuts     int64 // items inserted by the prefetcher
	PrefetchUsed     int64 // prefetched items later hit by a demand request
	RejectedLarge    int64 // items larger than the whole cache
	RejectedBudget   int64 // items refused because the memory budget was exhausted
	DerivedEvictions int64 // evictions that hit a derived entity
}

// entry is one cached item.
type entry struct {
	id         ItemID
	item       Entity
	size       int64
	prefetched bool
	derived    bool
}

// Evicted describes an item pushed out of a cache, so a tiered cache can
// spill it to the next level.
type Evicted struct {
	ID   ItemID
	Item Entity
	Size int64
}

// Cache is a byte-capacity entity cache with a pluggable replacement policy.
// It is safe for concurrent use. Demand blocks and derived entities are
// tracked by two instances of the same policy so that victim selection can
// sacrifice derived (re-computable) data first.
type Cache struct {
	name     string
	capacity int64

	// Budget, when non-nil, is a byte budget shared with other caches (the
	// other tier, other proxies): every insert reserves against it and every
	// eviction or removal releases. An insert that cannot reserve — even
	// after evicting its own victims — is refused and the item served
	// uncached.
	Budget *Budget

	mu      sync.Mutex
	used    int64
	items   map[ItemID]*entry
	policy  Policy // demand blocks
	derived Policy // derived entities, evicted first
	stats   CacheStats
}

// NewCache builds a cache with the given byte capacity and policy. A second
// instance of the same policy kind governs derived entities.
func NewCache(name string, capacity int64, policy Policy) *Cache {
	return &Cache{
		name:     name,
		capacity: capacity,
		items:    map[ItemID]*entry{},
		policy:   policy,
		derived:  siblingPolicy(policy),
	}
}

// siblingPolicy builds a fresh policy of the same kind; custom policies with
// unregistered names fall back to LRU for their derived side.
func siblingPolicy(p Policy) (out Policy) {
	defer func() {
		if recover() != nil {
			out = NewLRU()
		}
	}()
	return NewPolicy(p.Name())
}

// policyFor returns the policy tracking the entry.
func (c *Cache) policyFor(e *entry) Policy {
	if e.derived {
		return c.derived
	}
	return c.policy
}

// victimLocked picks the next eviction victim: derived entities go first —
// a BSP tree is rebuilt from its block in memory, while a demand
// block costs a storage or peer round trip. Caller holds c.mu.
func (c *Cache) victimLocked() (ItemID, bool) {
	if vid, ok := c.derived.Victim(); ok {
		return vid, true
	}
	return c.policy.Victim()
}

// Get returns the cached entity, updating policy and statistics. A demand
// hit on a prefetched item counts it as a useful prefetch.
func (c *Cache) Get(id ItemID) (Entity, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[id]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	if e.prefetched {
		c.stats.PrefetchUsed++
		e.prefetched = false
	}
	c.policyFor(e).Touch(id)
	return e.item, true
}

// Peek reports whether the item is cached without perturbing the policy or
// statistics; the peer-transfer source uses it for availability checks.
func (c *Cache) Peek(id ItemID) (Entity, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[id]
	if !ok {
		return nil, false
	}
	return e.item, true
}

// Put inserts an entity, evicting per policy until it fits, and returns the
// evicted items so a tiered cache can spill them. Items larger than the
// whole cache are rejected (returned in Evicted with ok=false semantics is
// avoided; they are simply not cached and counted).
func (c *Cache) Put(id ItemID, item Entity, prefetched bool) []Evicted {
	ev, _ := c.put(id, item, prefetched, nil)
	return ev
}

// PutOK is Put, additionally reporting whether the item actually resides in
// the cache afterwards (false when rejected for size or memory budget).
func (c *Cache) PutOK(id ItemID, item Entity, prefetched bool) ([]Evicted, bool) {
	return c.put(id, item, prefetched, nil)
}

// put is PutOK appending the evicted items to out.
func (c *Cache) put(id ItemID, item Entity, prefetched bool, out []Evicted) ([]Evicted, bool) {
	size := item.SizeBytes()
	derived := IsDerived(item)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[id]; ok {
		// Re-insert of a cached item: refresh recency; a demand re-insert
		// clears the prefetched mark.
		c.policyFor(e).Touch(id)
		if !prefetched {
			e.prefetched = false
		}
		return out, true
	}
	if size > c.capacity {
		c.stats.RejectedLarge++
		return out, false
	}
	// A derived entity makes room only among derived victims and is refused
	// when none is left: a tree must never push out a block a request is
	// about to read. A demand insert evicts derived entities first.
	victim := c.victimLocked
	if derived {
		victim = c.derived.Victim
	}
	for c.used+size > c.capacity {
		vid, ok := victim()
		if !ok {
			return out, false // only a derived insert finds no victim here
		}
		out = append(out, c.evictLocked(vid))
	}
	// Memory budget: reserve before inserting, evicting our own victims
	// under pressure. When nothing is left to evict the insert is refused
	// and the item is served uncached (degraded, but never over budget).
	for !c.Budget.TryReserve(size) {
		vid, ok := victim()
		if !ok {
			c.Budget.noteRejected()
			c.stats.RejectedBudget++
			return out, false
		}
		out = append(out, c.evictLocked(vid))
	}
	c.items[id] = &entry{id: id, item: item, size: size, prefetched: prefetched, derived: derived}
	if derived {
		c.derived.Insert(id)
	} else {
		c.policy.Insert(id)
	}
	c.used += size
	c.stats.Puts++
	if prefetched {
		c.stats.PrefetchPuts++
	}
	return out, true
}

// evictLocked removes the victim, releasing capacity and budget. Caller
// holds c.mu.
func (c *Cache) evictLocked(vid ItemID) Evicted {
	ve := c.items[vid]
	c.policyFor(ve).Remove(vid)
	delete(c.items, vid)
	c.used -= ve.size
	c.Budget.Release(ve.size)
	c.stats.Evictions++
	c.stats.BytesEvicted += ve.size
	if ve.derived {
		c.stats.DerivedEvictions++
	}
	return Evicted{ID: vid, Item: ve.item, Size: ve.size}
}

// Remove drops an item if present.
func (c *Cache) Remove(id ItemID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[id]; ok {
		c.policyFor(e).Remove(id)
		delete(c.items, id)
		c.used -= e.size
		c.Budget.Release(e.size)
	}
}

// Clear empties the cache (used to produce cold-cache measurements).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, e := range c.items {
		c.policyFor(e).Remove(id)
	}
	c.Budget.Release(c.used)
	c.items = map[ItemID]*entry{}
	c.used = 0
}

// Used reports the occupied bytes.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len reports the number of cached items.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a copy of the statistics.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Tiered is the paper's two-tier cache: a primary cache in main memory and
// an optional secondary cache on the node's local disk. Primary evictions
// spill to the secondary; secondary hits are promoted back, charging the
// local-disk read cost to the requesting actor.
type Tiered struct {
	Clock vclock.Clock
	L1    *Cache
	L2    *Cache // may be nil: no secondary cache
	// SpillCost and PromoteCost model local-disk write/read of an item of
	// the given size. Nil means free.
	SpillCost   func(bytes int64) time.Duration
	PromoteCost func(bytes int64) time.Duration
}

// Get looks the item up in L1 then L2, promoting on a secondary hit.
func (t *Tiered) Get(id ItemID) (Entity, bool) {
	if e, ok := t.L1.Get(id); ok {
		return e, true
	}
	if t.L2 == nil {
		return nil, false
	}
	e, ok := t.L2.Get(id)
	if !ok {
		return nil, false
	}
	t.L2.Remove(id)
	if t.PromoteCost != nil {
		t.Clock.Sleep(t.PromoteCost(e.SizeBytes()))
	}
	t.insertL1(id, e, false)
	return e, true
}

// Put inserts into the primary cache, spilling evictions to the secondary.
// It reports whether the item is resident in either tier afterwards (false
// when the memory budget refused it).
func (t *Tiered) Put(id ItemID, item Entity, prefetched bool) bool {
	return t.insertL1(id, item, prefetched)
}

func (t *Tiered) insertL1(id ItemID, item Entity, prefetched bool) bool {
	// A budgeted insert evicts on nearly every miss: the victims go through
	// stack buffers, the secondary tier's own ones straight to the floor.
	var spillBuf, dropBuf [4]Evicted
	spilled, ok := t.L1.put(id, item, prefetched, spillBuf[:0])
	if t.L2 == nil {
		return ok
	}
	for _, ev := range spilled {
		if t.SpillCost != nil {
			t.Clock.Sleep(t.SpillCost(ev.Size))
		}
		t.L2.put(ev.ID, ev.Item, false, dropBuf[:0])
	}
	return ok
}

// Peek checks both tiers without side effects.
func (t *Tiered) Peek(id ItemID) (Entity, bool) {
	if e, ok := t.L1.Peek(id); ok {
		return e, true
	}
	if t.L2 == nil {
		return nil, false
	}
	return t.L2.Peek(id)
}

// Clear empties both tiers.
func (t *Tiered) Clear() {
	t.L1.Clear()
	if t.L2 != nil {
		t.L2.Clear()
	}
}

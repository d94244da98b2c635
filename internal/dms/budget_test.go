package dms

import (
	"testing"

	"viracocha/internal/grid"
	"viracocha/internal/vclock"
)

// putOKHelper inserts an unpinned block and reports whether it landed.
func (c *Cache) putOKHelper(id ItemID, b *grid.Block) bool {
	_, ok := c.PutOK(id, b, false)
	return ok
}

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(100)
	if !b.TryReserve(60) {
		t.Fatal("reservation within the limit refused")
	}
	if p := b.Pressure(); p != 0.6 {
		t.Fatalf("pressure = %v, want 0.6", p)
	}
	if b.TryReserve(50) {
		t.Fatal("over-limit reservation granted")
	}
	if !b.TryReserve(40) {
		t.Fatal("exact-fit reservation refused")
	}
	b.Release(60)
	st := b.Stats()
	if st.Limit != 100 || st.Used != 40 || st.Peak != 100 {
		t.Fatalf("stats = %+v", st)
	}
	// Over-release floors at zero instead of corrupting the accounting.
	b.Release(1000)
	if st := b.Stats(); st.Used != 0 || st.Peak != 100 {
		t.Fatalf("stats after over-release = %+v", st)
	}
}

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if NewBudget(0) != nil || NewBudget(-5) != nil {
		t.Fatal("non-positive limits must yield the nil (unlimited) budget")
	}
	if !b.TryReserve(1 << 40) {
		t.Fatal("nil budget refused a reservation")
	}
	b.Release(5)
	b.NoteShed()
	if b.Pressure() != 0 {
		t.Fatal("nil budget under pressure")
	}
	if b.Stats() != (BudgetStats{}) {
		t.Fatal("nil budget has non-zero stats")
	}
}

// TestCacheEvictsOwnEntriesForBudget: a cache whose byte capacity is ample
// but whose shared budget is tight evicts its own LRU entries to fit a new
// insert; the budget's peak never exceeds the limit.
func TestCacheEvictsOwnEntriesForBudget(t *testing.T) {
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	c := NewCache("t", 100*one, NewLRU())
	c.Budget = NewBudget(2 * one)
	for i := 0; i < 4; i++ {
		if !c.putOKHelper(ItemID(i+1), blockOfSize(t, tinyID(0, i))) {
			t.Fatalf("insert %d refused despite evictable entries", i)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2 (budget-bound)", c.Len())
	}
	st := c.Budget.Stats()
	if st.Peak > st.Limit || st.Used != 2*one {
		t.Fatalf("budget stats = %+v", st)
	}
	if cs := c.Stats(); cs.Evictions != 2 || cs.RejectedBudget != 0 {
		t.Fatalf("cache stats = %+v, want 2 budget evictions", cs)
	}
}

// TestCacheRejectsWhenNothingEvictable: when another cache holds the whole
// budget, an empty cache cannot evict its way to room — the insert is
// refused (the caller serves the block uncached) and counted.
func TestCacheRejectsWhenNothingEvictable(t *testing.T) {
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	budget := NewBudget(2 * one)
	a := NewCache("a", 100*one, NewLRU())
	b := NewCache("b", 100*one, NewLRU())
	a.Budget, b.Budget = budget, budget
	a.putOKHelper(1, blockOfSize(t, tinyID(0, 0)))
	a.putOKHelper(2, blockOfSize(t, tinyID(0, 1)))
	if b.putOKHelper(3, blockOfSize(t, tinyID(0, 2))) {
		t.Fatal("insert granted with the budget exhausted elsewhere")
	}
	if _, ok := b.Get(3); ok {
		t.Fatal("refused insert still landed in the cache")
	}
	if st := budget.Stats(); st.Rejected != 1 || st.Peak > st.Limit {
		t.Fatalf("budget stats = %+v, want 1 rejection", st)
	}
	if cs := b.Stats(); cs.RejectedBudget != 1 {
		t.Fatalf("cache stats = %+v, want RejectedBudget=1", cs)
	}
	// Removing entry 1 returns its bytes: cache b can insert again.
	a.Remove(1)
	if !b.putOKHelper(3, blockOfSize(t, tinyID(0, 2))) {
		t.Fatal("insert refused after budget bytes were released")
	}
	if st := budget.Stats(); st.Used != 2*one {
		t.Fatalf("budget used = %d, want %d", st.Used, 2*one)
	}
}

func TestCacheClearReleasesBudget(t *testing.T) {
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	c := NewCache("t", 100*one, NewLRU())
	c.Budget = NewBudget(4 * one)
	c.putOKHelper(1, blockOfSize(t, tinyID(0, 0)))
	c.putOKHelper(2, blockOfSize(t, tinyID(0, 1)))
	c.Clear()
	if st := c.Budget.Stats(); st.Used != 0 {
		t.Fatalf("budget used = %d after Clear, want 0", st.Used)
	}
}

// TestProxyShedsPrefetchUnderPressure: once the budget passes the shed
// threshold, speculative prefetches are dropped before they issue a load,
// while demand loads still go through (evicting as needed).
func TestProxyShedsPrefetchUnderPressure(t *testing.T) {
	v := vclock.NewVirtual()
	one := blockOfSize(t, tinyID(0, 0)).SizeBytes()
	cfg := DefaultConfig()
	cfg.MemBudget = 2 * one
	srv, dev := testServer(v, cfg)
	p := srv.NewProxy("w0", nil)
	v.Go(func() {
		if _, err := p.Get(tinyID(0, 0)); err != nil {
			t.Error(err)
		}
		if _, err := p.Get(tinyID(0, 1)); err != nil {
			t.Error(err)
		}
		// Budget now full (pressure 1.0 ≥ the 0.9 shed threshold):
		// speculation is shed...
		p.Prefetch(tinyID(0, 2))
		// ...but a demand load still goes through by evicting.
		if _, err := p.Get(tinyID(0, 3)); err != nil {
			t.Error(err)
		}
	})
	v.Wait()
	st := p.Stats()
	if st.PrefetchShed != 1 || st.PrefetchIssued != 0 {
		t.Fatalf("proxy stats = %+v, want the prefetch shed before issuing", st)
	}
	if dev.Stats().Loads != 3 {
		t.Fatalf("device loads = %d, want 3 (no speculative load)", dev.Stats().Loads)
	}
	bst := srv.Budget().Stats()
	if bst.Shed != 1 || bst.Peak > bst.Limit {
		t.Fatalf("budget stats = %+v", bst)
	}
}

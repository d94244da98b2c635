package loader

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"viracocha/internal/grid"
	"viracocha/internal/vclock"
)

// TestRankIsStableByFitness pins the selector's order: ascending fitness,
// equal fitness in registration order, past the ranked array's size too.
func TestRankIsStableByFitness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		v := vclock.NewVirtual()
		s := NewSelector(v, 0)
		type src struct {
			name string
			cost time.Duration
		}
		var want []src
		for i, n := 0, 1+rng.Intn(2*maxRanked); i < n; i++ {
			c := src{fmt.Sprintf("s%d", i), time.Duration(rng.Intn(4)) * time.Millisecond}
			avail := rng.Intn(5) > 0
			s.AddSource(&FuncSource{
				SourceName: c.name,
				AvailFn:    func(grid.BlockID) bool { return avail },
				CostFn:     func(grid.BlockID) time.Duration { return c.cost },
			})
			if avail {
				want = append(want, c)
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].cost < want[b].cost })
		got := s.rank(tinyID(0), nil)
		if len(got) != len(want) {
			t.Fatalf("ranked %d sources, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Name() != want[i].name {
				t.Fatalf("rank[%d] = %s, want %s (trial %d)", i, got[i].Name(), want[i].name, trial)
			}
		}
	}
}

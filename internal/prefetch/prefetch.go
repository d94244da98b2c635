// Package prefetch implements the DMS prefetching policies of the paper
// (§4.2): sequential one-block-lookahead (OBL), prefetch-on-miss, and an
// nth-order Markov predictor that learns the block-successor graph of a
// running command and falls back to OBL while it has no information — the
// exact hybrid the paper uses to cover the Markov learning phase.
package prefetch

import (
	"sync"

	"viracocha/internal/grid"
)

// Prefetcher decides which blocks to fetch ahead of demand. Record is called
// for every demand request (with whether it missed the cache); Suggest
// returns the blocks worth prefetching next. Implementations are safe for
// concurrent use: proxies on several workers share one policy instance.
type Prefetcher interface {
	Name() string
	Record(id grid.BlockID, miss bool)
	Suggest(id grid.BlockID) []grid.BlockID
}

// SuccessorFunc defines the "next block" relation that sequential
// prefetchers need. The paper notes that neighbour relations in 3-D
// multi-block data are not obvious, so the order is explicit: the default is
// file order within a step, then the first block of the next step.
type SuccessorFunc func(grid.BlockID) (grid.BlockID, bool)

// FileOrder returns the canonical successor relation for a data set with the
// given step and block counts: b+1 within a step, wrapping to block 0 of the
// next step, ending after the last block of the last step.
func FileOrder(steps, blocks int) SuccessorFunc {
	return func(id grid.BlockID) (grid.BlockID, bool) {
		if id.Block+1 < blocks {
			id.Block++
			return id, true
		}
		if id.Step+1 < steps {
			id.Step++
			id.Block = 0
			return id, true
		}
		return grid.BlockID{}, false
	}
}

// None is the null policy: no prefetching.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// Record implements Prefetcher.
func (None) Record(grid.BlockID, bool) {}

// Suggest implements Prefetcher.
func (None) Suggest(grid.BlockID) []grid.BlockID { return nil }

// OBL is sequential lookahead: every demand request suggests its next Depth
// successors (classic one-block-lookahead at Depth 1; deeper lookahead keeps
// several storage channels pipelined when transfers are long relative to
// the compute between block switches).
type OBL struct {
	Next  SuccessorFunc
	Depth int
}

// NewOBL builds a one-block-lookahead prefetcher over the successor relation.
func NewOBL(next SuccessorFunc) *OBL { return &OBL{Next: next, Depth: 1} }

// Name implements Prefetcher.
func (*OBL) Name() string { return "obl" }

// Record implements Prefetcher.
func (*OBL) Record(grid.BlockID, bool) {}

// Suggest implements Prefetcher.
func (o *OBL) Suggest(id grid.BlockID) []grid.BlockID {
	depth := o.Depth
	if depth < 1 {
		depth = 1
	}
	var out []grid.BlockID
	cur := id
	for k := 0; k < depth; k++ {
		n, ok := o.Next(cur)
		if !ok {
			break
		}
		out = append(out, n)
		cur = n
	}
	return out
}

// OnMiss suggests the successor only when the triggering request missed the
// cache (the paper's "prefetch-on-miss").
type OnMiss struct {
	Next SuccessorFunc

	mu       sync.Mutex
	lastMiss map[grid.BlockID]bool
}

// NewOnMiss builds a prefetch-on-miss policy over the successor relation.
func NewOnMiss(next SuccessorFunc) *OnMiss {
	return &OnMiss{Next: next, lastMiss: map[grid.BlockID]bool{}}
}

// Name implements Prefetcher.
func (*OnMiss) Name() string { return "prefetch-on-miss" }

// Record implements Prefetcher.
func (m *OnMiss) Record(id grid.BlockID, miss bool) {
	m.mu.Lock()
	m.lastMiss[id] = miss
	m.mu.Unlock()
}

// Suggest implements Prefetcher.
func (m *OnMiss) Suggest(id grid.BlockID) []grid.BlockID {
	m.mu.Lock()
	miss := m.lastMiss[id]
	m.mu.Unlock()
	if !miss {
		return nil
	}
	if n, ok := m.Next(id); ok {
		return []grid.BlockID{n}
	}
	return nil
}

// Markov is an nth-order Markov predictor: it observes the demand request
// stream, counts successors of every length-n context, and suggests the most
// frequent successor of the current context. While a context has no
// observations it defers to the fallback policy (OBL in the paper's hybrid),
// so the learning phase still issues useful prefetches.
type Markov struct {
	Order    int
	Fallback Prefetcher
	// Depth is how many chain steps Suggest walks ahead (default 1). Depth
	// above 1 only applies to first-order predictors.
	Depth int
	// MinConfidence gates chain steps beyond the first: the walk extends
	// only through transitions whose observed probability is at least this
	// value, so speculative depth never multiplies an ambiguous prediction.
	MinConfidence float64

	mu      sync.Mutex
	history []grid.BlockID
	counts  map[string]map[grid.BlockID]int
}

// NewMarkov builds an order-n predictor (n ≥ 1) with the given fallback
// (which may be nil for "no suggestion during learning").
func NewMarkov(order int, fallback Prefetcher) *Markov {
	if order < 1 {
		order = 1
	}
	return &Markov{
		Order:    order,
		Fallback: fallback,
		Depth:    1,
		counts:   map[string]map[grid.BlockID]int{},
	}
}

// Name implements Prefetcher.
func (m *Markov) Name() string { return "markov" }

func contextKey(ids []grid.BlockID) string {
	key := ""
	for _, id := range ids {
		key += id.String() + "|"
	}
	return key
}

// Record implements Prefetcher: it extends the request history and updates
// the successor counts of the preceding context.
func (m *Markov) Record(id grid.BlockID, miss bool) {
	m.mu.Lock()
	if len(m.history) >= m.Order {
		ctx := contextKey(m.history[len(m.history)-m.Order:])
		c := m.counts[ctx]
		if c == nil {
			c = map[grid.BlockID]int{}
			m.counts[ctx] = c
		}
		c[id]++
	}
	m.history = append(m.history, id)
	if len(m.history) > m.Order {
		m.history = m.history[len(m.history)-m.Order:]
	}
	m.mu.Unlock()
	if m.Fallback != nil {
		m.Fallback.Record(id, miss)
	}
}

// Suggest implements Prefetcher: the most likely successor of the current
// context, or the fallback's suggestion when the context is unseen. With
// Depth > 1 (first order only) the learned chain is walked greedily so
// several transfers can be in flight ahead of the demand stream.
func (m *Markov) Suggest(id grid.BlockID) []grid.BlockID {
	m.mu.Lock()
	var out []grid.BlockID
	if m.Order == 1 {
		depth := m.Depth
		if depth < 1 {
			depth = 1
		}
		cur := id
		for k := 0; k < depth; k++ {
			best, n, total := m.bestSuccessorLocked(contextKey([]grid.BlockID{cur}))
			if n == 0 {
				break
			}
			if k > 0 && m.MinConfidence > 0 && float64(n) < m.MinConfidence*float64(total) {
				break
			}
			out = append(out, best)
			cur = best
		}
	} else if len(m.history) >= m.Order && m.history[len(m.history)-1] == id {
		ctx := contextKey(m.history[len(m.history)-m.Order:])
		if best, n, _ := m.bestSuccessorLocked(ctx); n > 0 {
			out = append(out, best)
		}
	}
	m.mu.Unlock()
	if len(out) > 0 {
		return out
	}
	if m.Fallback != nil {
		return m.Fallback.Suggest(id)
	}
	return nil
}

// bestSuccessorLocked returns the most frequent successor of a context and
// the total observation count, ties broken by name for determinism.
func (m *Markov) bestSuccessorLocked(ctx string) (grid.BlockID, int, int) {
	var best grid.BlockID
	bestN, total := 0, 0
	if c, ok := m.counts[ctx]; ok {
		for succ, n := range c {
			total += n
			if n > bestN || (n == bestN && succ.String() < best.String()) {
				best, bestN = succ, n
			}
		}
	}
	return best, bestN, total
}

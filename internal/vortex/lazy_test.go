package vortex

import (
	"math"
	"math/rand"
	"testing"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
)

// perNodeLazy is the per-node lazy evaluator the row-lazy one replaced, kept
// as the oracle: each requested node gets its own gradient and eigen-solve
// through nodeLambda2, and the count is of distinct nodes requested.
type perNodeLazy struct {
	b    *grid.Block
	vals []float32
	done []bool
	n    int
}

func newPerNodeLazy(b *grid.Block) *perNodeLazy {
	return &perNodeLazy{b: b, vals: make([]float32, b.NumNodes()), done: make([]bool, b.NumNodes())}
}

func (o *perNodeLazy) Node(i, j, k int) float64 {
	idx := o.b.Index(i, j, k)
	if !o.done[idx] {
		o.vals[idx] = float32(nodeLambda2(o.b, i, j, k))
		o.done[idx] = true
		o.n++
	}
	return float64(o.vals[idx])
}

func (o *perNodeLazy) EnsureCell(ci, cj, ck int) {
	for dk := 0; dk <= 1; dk++ {
		for dj := 0; dj <= 1; dj++ {
			for di := 0; di <= 1; di++ {
				o.Node(ci+di, cj+dj, ck+dk)
			}
		}
	}
}

// shuffledNodes returns every node of b in a seeded random order.
func shuffledNodes(b *grid.Block, seed int64) [][3]int {
	nodes := make([][3]int, 0, b.NumNodes())
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			for i := 0; i < b.NI; i++ {
				nodes = append(nodes, [3]int{i, j, k})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(nodes), func(a, c int) { nodes[a], nodes[c] = nodes[c], nodes[a] })
	return nodes
}

// checkShuffled requests every node of b from l in shuffled order, each
// twice, and checks the value bitwise against the per-node oracle and the
// count against the number of distinct nodes requested so far.
func checkShuffled(t *testing.T, name string, l *Lazy, b *grid.Block, seed int64) {
	t.Helper()
	oracle := newPerNodeLazy(b)
	for _, n := range shuffledNodes(b, seed) {
		want := float32(oracle.Node(n[0], n[1], n[2]))
		for rep := 0; rep < 2; rep++ {
			if got := float32(l.Node(n[0], n[1], n[2])); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s node %v: lazy %v (%#x) != per-node %v (%#x)",
					name, n, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		if l.ComputedNodes() != oracle.n {
			t.Fatalf("%s node %v: ComputedNodes %d, per-node count %d", name, n, l.ComputedNodes(), oracle.n)
		}
	}
}

// TestLazyShuffledMatchesPerNode pins the row-lazy evaluator to the per-node
// oracle bit for bit when nodes arrive in random order — so a row is often
// computed for a node in its middle — on degenerate blocks (the nonVortex
// rows) and on blocks with 2 nodes along an axis.
func TestLazyShuffledMatchesPerNode(t *testing.T) {
	blocks := map[string]*grid.Block{
		"lamb":     lambOseenBlock(9),
		"degen":    degenerateBlock(7),
		"rnd":      randomCurvilinearBlock(21, 11, 9, 7),
		"ni2":      randomCurvilinearBlock(22, 2, 5, 4),
		"nj2":      randomCurvilinearBlock(23, 6, 2, 3),
		"nk2":      randomCurvilinearBlock(24, 5, 4, 2),
		"222":      randomCurvilinearBlock(25, 2, 2, 2),
		"lopsided": randomCurvilinearBlock(26, 23, 3, 11),
	}
	for name, b := range blocks {
		l := NewLazy(b)
		checkShuffled(t, name, l, b, int64(len(name)))
		if l.ComputedNodes() != b.NumNodes() {
			t.Fatalf("%s: ComputedNodes %d after every node, want %d", name, l.ComputedNodes(), b.NumNodes())
		}
		l.Release()
	}
}

// TestLazyRecycledAcrossBlocks moves one pooled evaluator between blocks of
// different dimensions and between two blocks of equal dimensions but
// different data. The recycled field array still holds the previous block's
// λ2, so a row marked done from the previous block would read stale values.
func TestLazyRecycledAcrossBlocks(t *testing.T) {
	seq := []*grid.Block{
		randomCurvilinearBlock(31, 11, 9, 7),
		randomCurvilinearBlock(32, 5, 13, 3),
		randomCurvilinearBlock(33, 5, 13, 3), // same shape, other data
		randomCurvilinearBlock(34, 2, 2, 2),
		randomCurvilinearBlock(35, 11, 9, 7),
		randomCurvilinearBlock(36, 11, 9, 7),
	}
	var prev *Lazy
	for bi, b := range seq {
		l := NewLazy(b)
		if !raceEnabled && prev != nil && l != prev {
			t.Fatalf("block %d: NewLazy did not recycle the released evaluator", bi)
		}
		if l.ComputedNodes() != 0 {
			t.Fatalf("block %d: recycled evaluator reports %d computed nodes", bi, l.ComputedNodes())
		}
		checkShuffled(t, "block", l, b, int64(bi))
		l.Release()
		prev = l
	}
}

// skippedBrick is the partial scan's skip pattern: the cells of two in
// every three 4³-cell bricks are never asked for, so most rows the scan
// touches are only partly requested.
func skippedBrick(ci, cj, ck int) bool {
	return (ci/4*7+cj/4*3+ck/4)%3 != 0
}

// TestLazyComputedNodesOnSkippedScan runs a partial cell scan over one step
// of propfan scale 1, skipping brick runs, once through the row-lazy
// evaluator and once through the per-node oracle: the values of every
// requested node and the priced count must agree, although whole rows are
// computed.
func TestLazyComputedNodesOnSkippedScan(t *testing.T) {
	d := dataset.Propfan().WithScale(1)
	requested, total := 0, 0
	for blk := 0; blk < d.Blocks; blk++ {
		b := d.Generate(0, blk)
		l := NewLazy(b)
		oracle := newPerNodeLazy(b)
		for ck := 0; ck < b.NK-1; ck++ {
			for cj := 0; cj < b.NJ-1; cj++ {
				for ci := 0; ci < b.NI-1; ci++ {
					if skippedBrick(ci, cj, ck) {
						continue
					}
					l.EnsureCell(ci, cj, ck)
					oracle.EnsureCell(ci, cj, ck)
				}
			}
		}
		if l.ComputedNodes() != oracle.n {
			t.Fatalf("block %d: ComputedNodes %d, per-node count %d", blk, l.ComputedNodes(), oracle.n)
		}
		vals := l.Vals()
		for idx, done := range oracle.done {
			if done && math.Float32bits(vals[idx]) != math.Float32bits(oracle.vals[idx]) {
				t.Fatalf("block %d node %d: lazy %v != per-node %v", blk, idx, vals[idx], oracle.vals[idx])
			}
		}
		requested += oracle.n
		total += b.NumNodes()
		l.Release()
	}
	if requested == 0 || requested == total {
		t.Fatalf("scan requested %d of %d nodes: the pattern skipped nothing or everything, degenerate test", requested, total)
	}
}

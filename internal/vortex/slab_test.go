package vortex

import (
	"math"
	"math/rand"
	"testing"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
)

// randomCurvilinearBlock builds a jittered curvilinear grid carrying a
// random smooth velocity field: superposed harmonics give patches of both
// strain and rotation, so λ2 takes both signs across the block.
func randomCurvilinearBlock(seed int64, ni, nj, nk int) *grid.Block {
	rng := rand.New(rand.NewSource(seed))
	b := grid.NewBlock(grid.BlockID{Dataset: "rnd", Step: 0, Block: int(seed)}, ni, nj, nk)
	type harm struct{ ax, ay, az, fx, fy, fz, ph float64 }
	mk := func() harm {
		return harm{
			ax: rng.Float64()*2 - 1, ay: rng.Float64()*2 - 1, az: rng.Float64()*2 - 1,
			fx: 1 + rng.Float64()*3, fy: 1 + rng.Float64()*3, fz: 1 + rng.Float64()*3,
			ph: rng.Float64() * 2 * math.Pi,
		}
	}
	hs := [4]harm{mk(), mk(), mk(), mk()}
	jitter := 0.25 / float64(max(ni, max(nj, nk)))
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			for i := 0; i < ni; i++ {
				p := mathx.Vec3{
					X: float64(i)/float64(ni-1) + jitter*(rng.Float64()*2-1),
					Y: float64(j)/float64(nj-1) + jitter*(rng.Float64()*2-1),
					Z: float64(k)/float64(nk-1) + jitter*(rng.Float64()*2-1),
				}
				b.SetPoint(i, j, k, p)
				var v mathx.Vec3
				for _, h := range hs {
					s := math.Sin(h.fx*p.X + h.fy*p.Y + h.fz*p.Z + h.ph)
					c := math.Cos(h.fx*p.X - h.fy*p.Y + h.fz*p.Z)
					v.X += h.ax * s
					v.Y += h.ay * c
					v.Z += h.az * s * c
				}
				b.SetVel(i, j, k, v)
			}
		}
	}
	return b
}

// degenerateBlock collapses one grid plane so the geometric Jacobian is
// singular there — the nonVortex stand-in path must match too.
func degenerateBlock(n int) *grid.Block {
	b := randomCurvilinearBlock(99, n, n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			b.SetPoint(i, j, 1, b.Point(i, j, 0))
		}
	}
	return b
}

// nodeLambda2 is the seed per-node reference kernel, retained verbatim as
// the determinism oracle the slab-blocked sweep is pinned against.
func nodeLambda2(b *grid.Block, i, j, k int) float64 {
	jac, ok := b.VelocityGradient(i, j, k)
	if !ok {
		return nonVortex
	}
	return mathx.Lambda2(jac)
}

// referenceField is the seed kernel, node by node: the oracle the
// slab-blocked sweep is compared against.
func referenceField(b *grid.Block) []float32 {
	out := make([]float32, b.NumNodes())
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			for i := 0; i < b.NI; i++ {
				out[b.Index(i, j, k)] = float32(nodeLambda2(b, i, j, k))
			}
		}
	}
	return out
}

// TestSlabDeterminism pins the slab-blocked λ2 sweep bit-identical to the
// seed nodeLambda2 reference kernel: same bytes at every node, on analytic,
// randomized-curvilinear and degenerate blocks, across non-brick-aligned
// dimensions.
func TestSlabDeterminism(t *testing.T) {
	blocks := []*grid.Block{
		lambOseenBlock(17),
		shearBlock(9),
		degenerateBlock(7),
		randomCurvilinearBlock(1, 9, 9, 9),
		randomCurvilinearBlock(2, 13, 7, 5),
		randomCurvilinearBlock(3, 2, 2, 2),
		randomCurvilinearBlock(4, 3, 8, 2),
		randomCurvilinearBlock(5, 23, 3, 11),
	}
	for bi, b := range blocks {
		want := referenceField(b)
		got := make([]float32, b.NumNodes())
		if n := ComputeInto(b, got); n != b.NumNodes() {
			t.Fatalf("block %d: computed %d nodes, want %d", bi, n, b.NumNodes())
		}
		for idx := range want {
			if math.Float32bits(got[idx]) != math.Float32bits(want[idx]) {
				t.Fatalf("block %d node %d: slab %v (%#x) != reference %v (%#x)",
					bi, idx, got[idx], math.Float32bits(got[idx]),
					want[idx], math.Float32bits(want[idx]))
			}
		}
	}
}

// TestLazyMatchesSlabBitwise pins the on-demand kernel to the same bytes as
// the slab sweep: the streamed command and the precomputed field must agree
// exactly for the min/max index bounds to be valid on both paths.
func TestLazyMatchesSlabBitwise(t *testing.T) {
	b := randomCurvilinearBlock(6, 11, 9, 7)
	field := make([]float32, b.NumNodes())
	ComputeInto(b, field)
	l := NewLazy(b)
	defer l.Release()
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			for i := 0; i < b.NI; i++ {
				got := float32(l.Node(i, j, k))
				want := field[b.Index(i, j, k)]
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("lazy(%d,%d,%d) = %v != slab %v", i, j, k, got, want)
				}
			}
		}
	}
}

// TestComputeIntoSteadyStateAllocs pins the whole eager λ2 pipeline —
// pooled field, row scratch, sweep — at zero steady-state allocations.
func TestComputeIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under -race; pooling guards are exact only in non-race builds")
	}
	b := lambOseenBlock(17)
	warm := func() {
		vals := AcquireField(b.NumNodes())
		ComputeInto(b, vals)
		ReleaseField(vals)
	}
	warm()
	if avg := testing.AllocsPerRun(10, warm); avg != 0 {
		t.Fatalf("eager λ2 pipeline allocates %v per run, want 0", avg)
	}
}

// TestLazySteadyStateAllocs is the AllocsPerRun guard for the lazy path:
// after one warm-up cycle, NewLazy/EnsureCell/Release must run without
// allocating — the evaluator and its field come back from the pools.
func TestLazySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under -race; pooling guards are exact only in non-race builds")
	}
	b := lambOseenBlock(17)
	cycle := func() {
		l := NewLazy(b)
		for ck := 0; ck < b.NK-1; ck++ {
			l.EnsureCell(3, 3, ck)
		}
		l.Release()
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("lazy λ2 path allocates %v per run, want 0", avg)
	}
}

// TestLazySharesFieldPool verifies the satellite fix directly: the array a
// released Lazy hands back is the one a subsequent AcquireField of the same
// size receives, and vice versa — one pool serves both evaluation modes.
func TestLazySharesFieldPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under -race; pooling guards are exact only in non-race builds")
	}
	b := lambOseenBlock(9)
	l := NewLazy(b)
	p := &l.Vals()[0]
	l.Release()
	vals := AcquireField(b.NumNodes())
	if &vals[0] != p {
		t.Fatalf("AcquireField did not reuse the released Lazy field")
	}
	ReleaseField(vals)
	l = NewLazy(b)
	if &l.Vals()[0] != p {
		t.Fatalf("NewLazy did not reuse the released field")
	}
	l.Release()
}

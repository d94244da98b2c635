package vortex

import (
	"math"
	"testing"

	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// Compute evaluates λ2 at every node of the block into its "lambda2" scalar
// field (an existing field is recomputed) and returns the number of nodes
// computed.
func Compute(b *grid.Block) int {
	return ComputeInto(b, b.EnsureScalar(FieldName))
}

// lambOseenBlock builds a block on [-1,1]²×[0,0.5] carrying a Lamb-Oseen
// vortex along the z axis: a well-understood flow whose core is a vortex by
// any criterion.
func lambOseenBlock(n int) *grid.Block {
	b := grid.NewBlock(grid.BlockID{Dataset: "t", Step: 0, Block: 0}, n, n, 5)
	const gamma, rc = 2.0, 0.25
	for k := 0; k < 5; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				p := mathx.Vec3{
					X: -1 + 2*float64(i)/float64(n-1),
					Y: -1 + 2*float64(j)/float64(n-1),
					Z: 0.5 * float64(k) / 4,
				}
				b.SetPoint(i, j, k, p)
				r2 := p.X*p.X + p.Y*p.Y
				r := math.Sqrt(r2 + 1e-12)
				ut := gamma / (2 * math.Pi * r) * (1 - math.Exp(-r2/(rc*rc)))
				b.SetVel(i, j, k, mathx.Vec3{X: -ut * p.Y / r, Y: ut * p.X / r, Z: 0})
			}
		}
	}
	return b
}

// shearBlock has pure strain: u = (x, -y, 0). No vortex anywhere.
func shearBlock(n int) *grid.Block {
	b := grid.NewBlock(grid.BlockID{Dataset: "t", Step: 0, Block: 1}, n, n, 3)
	for k := 0; k < 3; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				p := mathx.Vec3{
					X: float64(i) / float64(n-1),
					Y: float64(j) / float64(n-1),
					Z: float64(k) / 2,
				}
				b.SetPoint(i, j, k, p)
				b.SetVel(i, j, k, mathx.Vec3{X: p.X, Y: -p.Y, Z: 0})
			}
		}
	}
	return b
}

func TestComputeFindsVortexCore(t *testing.T) {
	b := lambOseenBlock(17)
	n := Compute(b)
	if n != b.NumNodes() {
		t.Fatalf("computed %d nodes, want %d", n, b.NumNodes())
	}
	f := b.Scalars[FieldName]
	// λ2 at the centre node must be clearly negative.
	center := b.Index(8, 8, 2)
	if f[center] >= 0 {
		t.Fatalf("λ2 at vortex core = %v, want < 0", f[center])
	}
	// λ2 at the far corner (outside the core, nearly potential flow) must
	// be much closer to zero.
	corner := b.Index(0, 0, 2)
	if math.Abs(float64(f[corner])) > math.Abs(float64(f[center]))/4 {
		t.Fatalf("λ2 far field %v not ≪ core %v", f[corner], f[center])
	}
}

func TestComputeNoVortexInPureStrain(t *testing.T) {
	b := shearBlock(9)
	Compute(b)
	for _, v := range b.Scalars[FieldName] {
		if v < -1e-6 {
			t.Fatalf("λ2 = %v < 0 in pure strain flow", v)
		}
	}
}

func TestLazyMatchesEager(t *testing.T) {
	b := lambOseenBlock(11)
	eager := grid.NewBlock(b.ID, b.NI, b.NJ, b.NK)
	copy(eager.Points, b.Points)
	copy(eager.Velocity, b.Velocity)
	Compute(eager)
	lazy := NewLazy(b)
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			for i := 0; i < b.NI; i++ {
				got := lazy.Node(i, j, k)
				want := float64(eager.Scalars[FieldName][eager.Index(i, j, k)])
				if !mathx.AlmostEqual(got, want, 1e-6) {
					t.Fatalf("lazy(%d,%d,%d) = %v, eager %v", i, j, k, got, want)
				}
			}
		}
	}
	if lazy.ComputedNodes() != b.NumNodes() {
		t.Fatalf("ComputedNodes = %d", lazy.ComputedNodes())
	}
}

func TestLazyMemoizes(t *testing.T) {
	b := lambOseenBlock(9)
	lazy := NewLazy(b)
	lazy.Node(4, 4, 2)
	lazy.Node(4, 4, 2)
	if lazy.ComputedNodes() != 1 {
		t.Fatalf("ComputedNodes = %d, want 1 (memoized)", lazy.ComputedNodes())
	}
	lazy.EnsureCell(3, 3, 1)
	if lazy.ComputedNodes() != 8 {
		// Cell corners are nodes (3..4,3..4,1..2); (4,4,2) was already done.
		t.Fatalf("ComputedNodes = %d, want 8", lazy.ComputedNodes())
	}
}

func TestVortexIsosurfaceEnclosesCore(t *testing.T) {
	// Extract the λ2 = -0.5·|λ2min| isosurface: a tube around the z axis.
	b := lambOseenBlock(25)
	Compute(b)
	f := b.Scalars[FieldName]
	minv := float32(0)
	for _, v := range f {
		if v < minv {
			minv = v
		}
	}
	thresh := float64(minv) * 0.2
	var m mesh.Mesh
	res := iso.ExtractBlock(b, FieldName, thresh, &m)
	if res.Triangles == 0 {
		t.Fatal("no vortex surface extracted")
	}
	// All surface vertices should be near the core (within ~0.5 of axis).
	for i := 0; i < m.NumVertices(); i++ {
		v := m.Vertex(i)
		r := math.Hypot(v.X, v.Y)
		if r > 0.6 {
			t.Fatalf("vortex surface vertex at radius %v: tube leaked", r)
		}
	}
}

func TestLazyStreamedActiveCellsMatchEager(t *testing.T) {
	// The streamed scheme (lazy λ2 + cell-at-a-time extraction) must find
	// exactly the same active cells, with the same triangle counts, as the
	// precomputed field.
	b := lambOseenBlock(13)
	eagerBlock := lambOseenBlock(13)
	Compute(eagerBlock)
	ef := eagerBlock.Scalars[FieldName]
	thresh := -1.0
	lazy := NewLazy(b)
	var lazyMesh, eagerMesh mesh.Mesh
	lazyEx, eagerEx := iso.NewExtractor(b, &lazyMesh), iso.NewExtractor(eagerBlock, &eagerMesh)
	defer lazyEx.Close()
	defer eagerEx.Close()
	active := 0
	for ck := 0; ck < b.NK-1; ck++ {
		for cj := 0; cj < b.NJ-1; cj++ {
			for ci := 0; ci < b.NI-1; ci++ {
				lazy.EnsureCell(ci, cj, ck)
				got := lazyEx.Cell(lazy.Vals(), thresh, ci, cj, ck)
				want := eagerEx.Cell(ef, thresh, ci, cj, ck)
				if got != want {
					t.Fatalf("cell (%d,%d,%d): lazy %d triangles, eager %d", ci, cj, ck, got, want)
				}
				if got > 0 {
					active++
				}
			}
		}
	}
	if active == 0 {
		t.Fatal("no active cell: degenerate test")
	}
}

func TestAcquireFieldMatchesCompute(t *testing.T) {
	b := lambOseenBlock(13)
	want := make([]float32, b.NumNodes())
	ComputeInto(b, want)
	// Round-trip through the pool: the recycled array must be fully
	// overwritten, with no stale values leaking between requests.
	vals := AcquireField(b.NumNodes())
	ComputeInto(b, vals)
	ReleaseField(vals)
	vals = AcquireField(b.NumNodes())
	if len(vals) != b.NumNodes() {
		t.Fatalf("AcquireField length %d, want %d", len(vals), b.NumNodes())
	}
	ComputeInto(b, vals)
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("pooled field differs at node %d: %v vs %v", i, vals[i], want[i])
		}
	}
	ReleaseField(vals)
	ReleaseField(nil) // must not panic
}

func TestLazyReleaseReuse(t *testing.T) {
	b := lambOseenBlock(13)
	l := NewLazy(b)
	l.EnsureCell(2, 2, 1)
	if l.ComputedNodes() != 8 {
		t.Fatalf("ComputedNodes = %d, want 8", l.ComputedNodes())
	}
	l.Release()
	// A recycled evaluator starts from scratch: no memoized nodes survive,
	// and recomputed values match a fresh eager pass.
	l2 := NewLazy(b)
	defer l2.Release()
	if l2.ComputedNodes() != 0 {
		t.Fatalf("recycled Lazy reports %d computed nodes, want 0", l2.ComputedNodes())
	}
	want := make([]float32, b.NumNodes())
	ComputeInto(b, want)
	for _, ijk := range [][3]int{{2, 2, 1}, {0, 0, 0}, {5, 7, 2}} {
		got := l2.Node(ijk[0], ijk[1], ijk[2])
		idx := b.Index(ijk[0], ijk[1], ijk[2])
		if float32(got) != want[idx] {
			t.Fatalf("recycled Lazy node %v = %v, want %v", ijk, got, want[idx])
		}
	}
}

package iso

import (
	"math"
	"testing"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// scalarBlock builds a uniform block on [0,1]³ with field f(p).
func scalarBlock(n int, f func(p mathx.Vec3) float64) *grid.Block {
	b := grid.NewBlock(grid.BlockID{Dataset: "t", Step: 0, Block: 0}, n, n, n)
	s := b.EnsureScalar("s")
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				p := mathx.Vec3{
					X: float64(i) / float64(n-1),
					Y: float64(j) / float64(n-1),
					Z: float64(k) / float64(n-1),
				}
				b.SetPoint(i, j, k, p)
				s[b.Index(i, j, k)] = float32(f(p))
			}
		}
	}
	return b
}

func TestActiveCell(t *testing.T) {
	b := scalarBlock(3, func(p mathx.Vec3) float64 { return p.X })
	vals := b.Scalars["s"]
	// iso=0.25 crosses cells with x ∈ [0,0.5] (first cell layer).
	if !activeCell(b, vals, 0.25, 0, 0, 0) {
		t.Fatal("cell straddling iso not active")
	}
	if activeCell(b, vals, 0.25, 1, 0, 0) {
		t.Fatal("cell fully above iso marked active")
	}
	if activeCell(b, vals, 2.0, 0, 0, 0) {
		t.Fatal("iso outside range marked active")
	}
}

func TestPlanarIsosurface(t *testing.T) {
	// f = x, iso = 0.5: the surface is the unit plane x=0.5 with area 1.
	b := scalarBlock(9, func(p mathx.Vec3) float64 { return p.X })
	var m mesh.Mesh
	res := ExtractBlock(b, "s", 0.5, &m)
	if res.Triangles == 0 {
		t.Fatal("no triangles extracted")
	}
	if !mathx.AlmostEqual(m.Area(), 1.0, 1e-6) {
		t.Fatalf("plane area = %v, want 1", m.Area())
	}
	// All vertices must lie on x=0.5.
	for i := 0; i < m.NumVertices(); i++ {
		if math.Abs(m.Vertex(i).X-0.5) > 1e-6 {
			t.Fatalf("vertex %v off the plane", m.Vertex(i))
		}
	}
}

func TestPlanarIsosurfaceDiagonal(t *testing.T) {
	// f = x+y+z, iso = 1.5: plane through the cube centre; its area inside
	// the unit cube is 3√3/4·... — just verify all vertices satisfy the
	// implicit equation and triangles are nondegenerate.
	b := scalarBlock(8, func(p mathx.Vec3) float64 { return p.X + p.Y + p.Z })
	var m mesh.Mesh
	res := ExtractBlock(b, "s", 1.5, &m)
	if res.Triangles == 0 {
		t.Fatal("no triangles")
	}
	for i := 0; i < m.NumVertices(); i++ {
		v := m.Vertex(i)
		if math.Abs(v.X+v.Y+v.Z-1.5) > 1e-5 {
			t.Fatalf("vertex %v violates the level-set equation", v)
		}
	}
	if m.Area() <= 0 {
		t.Fatal("degenerate surface")
	}
}

func TestSphereIsosurface(t *testing.T) {
	// f = |p-c|², iso = r²: sphere of radius 0.3 centred in the cube.
	c := mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	r := 0.3
	b := scalarBlock(21, func(p mathx.Vec3) float64 {
		d := p.Sub(c)
		return d.Dot(d)
	})
	var m mesh.Mesh
	ExtractBlock(b, "s", r*r, &m)
	if m.NumTriangles() < 100 {
		t.Fatalf("suspiciously few triangles: %d", m.NumTriangles())
	}
	// Vertices near radius r.
	for i := 0; i < m.NumVertices(); i++ {
		d := m.Vertex(i).Sub(c).Norm()
		if math.Abs(d-r) > 0.02 {
			t.Fatalf("vertex at radius %v, want ≈ %v", d, r)
		}
	}
	// Area within 5% of 4πr².
	want := 4 * math.Pi * r * r
	if math.Abs(m.Area()-want)/want > 0.05 {
		t.Fatalf("sphere area = %v, want ≈ %v", m.Area(), want)
	}
}

func TestClosedIsosurfaceIsWatertight(t *testing.T) {
	// A closed surface fully interior to the block must, after welding,
	// have every edge shared by exactly two triangles.
	c := mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	b := scalarBlock(13, func(p mathx.Vec3) float64 {
		d := p.Sub(c)
		return d.Dot(d)
	})
	var m mesh.Mesh
	ExtractBlock(b, "s", 0.09, &m)
	m.Weld(1e-7)
	edges := map[[2]uint32]int{}
	for t := 0; t < len(m.Indices); t += 3 {
		tri := [3]uint32{m.Indices[t], m.Indices[t+1], m.Indices[t+2]}
		for e := 0; e < 3; e++ {
			a, b := tri[e], tri[(e+1)%3]
			if a > b {
				a, b = b, a
			}
			edges[[2]uint32{a, b}]++
		}
	}
	for e, n := range edges {
		if n != 2 {
			t.Fatalf("edge %v shared by %d triangles, want 2 (surface has cracks)", e, n)
		}
	}
}

func TestEmptyWhenIsoOutsideRange(t *testing.T) {
	b := scalarBlock(6, func(p mathx.Vec3) float64 { return p.X })
	var m mesh.Mesh
	res := ExtractBlock(b, "s", 5.0, &m)
	if res.Triangles != 0 || res.ActiveCells != 0 || m.NumTriangles() != 0 {
		t.Fatalf("extracted %d triangles for out-of-range iso", res.Triangles)
	}
	if res.CellsVisited != b.NumCells() {
		t.Fatalf("CellsVisited = %d, want %d", res.CellsVisited, b.NumCells())
	}
}

func TestExtractRangeSubset(t *testing.T) {
	b := scalarBlock(9, func(p mathx.Vec3) float64 { return p.X })
	vals := b.Scalars["s"]
	var whole, part mesh.Mesh
	full := ExtractRange(b, vals, 0.5, grid.CellRange{Hi: [3]int{8, 8, 8}}, &whole)
	// The active layer is cells ci=3..4 (x crossing 0.5 at node 4).
	sub := ExtractRange(b, vals, 0.5, grid.CellRange{Lo: [3]int{3, 0, 0}, Hi: [3]int{5, 8, 8}}, &part)
	if sub.Triangles != full.Triangles {
		t.Fatalf("restricted range missed triangles: %d vs %d", sub.Triangles, full.Triangles)
	}
	if sub.CellsVisited >= full.CellsVisited {
		t.Fatal("range restriction did not reduce visited cells")
	}
}

func TestExtractBlockPanicsOnMissingField(t *testing.T) {
	b := scalarBlock(3, func(p mathx.Vec3) float64 { return p.X })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var m mesh.Mesh
	ExtractBlock(b, "nope", 0.5, &m)
}

func TestResultCounts(t *testing.T) {
	b := scalarBlock(5, func(p mathx.Vec3) float64 { return p.Z })
	var m mesh.Mesh
	res := ExtractBlock(b, "s", 0.6, &m)
	if res.CellsVisited != 64 {
		t.Fatalf("CellsVisited = %d, want 64", res.CellsVisited)
	}
	// One layer of 16 cells is active (z crossing between nodes 2 and 3).
	if res.ActiveCells != 16 {
		t.Fatalf("ActiveCells = %d, want 16", res.ActiveCells)
	}
	if res.Triangles != m.NumTriangles() {
		t.Fatalf("triangle count mismatch: %d vs %d", res.Triangles, m.NumTriangles())
	}
}

package iso

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// jitteredBlock builds a random curvilinear block: a regular lattice on
// [0,1]³ whose interior nodes are displaced by up to 30% of the spacing, with
// a smooth but generic scalar field evaluated at the displaced positions.
func jitteredBlock(n int, seed int64) *grid.Block {
	rng := rand.New(rand.NewSource(seed))
	b := grid.NewBlock(grid.BlockID{Dataset: "t", Step: 0, Block: 0}, n, n, n)
	s := b.EnsureScalar("s")
	h := 1.0 / float64(n-1)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				p := mathx.Vec3{X: float64(i) * h, Y: float64(j) * h, Z: float64(k) * h}
				if i > 0 && i < n-1 && j > 0 && j < n-1 && k > 0 && k < n-1 {
					p.X += (rng.Float64() - 0.5) * 0.6 * h
					p.Y += (rng.Float64() - 0.5) * 0.6 * h
					p.Z += (rng.Float64() - 0.5) * 0.6 * h
				}
				b.SetPoint(i, j, k, p)
				s[b.Index(i, j, k)] = float32(math.Sin(4*p.X)*math.Cos(3*p.Y) +
					math.Sin(5*p.Z)*math.Cos(2*p.X) + 0.3*p.Y)
			}
		}
	}
	return b
}

// referenceExtract runs the seed two-pass path: per-cell activeCell test,
// extractCell triangle soup, then a post-hoc Weld.
func referenceExtract(b *grid.Block, vals []float32, iso float64, m *mesh.Mesh) Result {
	var res Result
	for ck := 0; ck < b.NK-1; ck++ {
		for cj := 0; cj < b.NJ-1; cj++ {
			for ci := 0; ci < b.NI-1; ci++ {
				res.CellsVisited++
				if !activeCell(b, vals, iso, ci, cj, ck) {
					continue
				}
				res.ActiveCells++
				res.Triangles += extractCell(b, vals, iso, ci, cj, ck, m)
			}
		}
	}
	return res
}

// quantize keys a position to a grid fine enough to identify coincident
// vertices and coarse enough to absorb float noise.
func quantize(v mathx.Vec3) [3]int64 {
	const s = 1e7
	return [3]int64{
		int64(math.Round(v.X * s)),
		int64(math.Round(v.Y * s)),
		int64(math.Round(v.Z * s)),
	}
}

// triKey canonicalizes a triangle as its sorted quantized corner positions,
// making topology comparable across meshes with different vertex numbering.
func triKey(m *mesh.Mesh, t int) string {
	var c [3][3]int64
	for e := 0; e < 3; e++ {
		c[e] = quantize(m.Vertex(int(m.Indices[3*t+e])))
	}
	if c[1][0] < c[0][0] || (c[1][0] == c[0][0] && (c[1][1] < c[0][1] || (c[1][1] == c[0][1] && c[1][2] < c[0][2]))) {
		c[0], c[1] = c[1], c[0]
	}
	if c[2][0] < c[1][0] || (c[2][0] == c[1][0] && (c[2][1] < c[1][1] || (c[2][1] == c[1][1] && c[2][2] < c[1][2]))) {
		c[1], c[2] = c[2], c[1]
	}
	if c[1][0] < c[0][0] || (c[1][0] == c[0][0] && (c[1][1] < c[0][1] || (c[1][1] == c[0][1] && c[1][2] < c[0][2]))) {
		c[0], c[1] = c[1], c[0]
	}
	return fmt.Sprint(c)
}

func vertexSet(m *mesh.Mesh) map[[3]int64]int {
	set := make(map[[3]int64]int, m.NumVertices())
	for i := 0; i < m.NumVertices(); i++ {
		set[quantize(m.Vertex(i))]++
	}
	return set
}

// TestWeldedExtractorMatchesReference is the kernel equivalence test: on
// random curvilinear blocks, the welded Extractor must reproduce the seed
// path (activeCell + extractCell + Weld) exactly — same counters, same
// triangle topology, same vertex set within tolerance.
func TestWeldedExtractorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		b := jitteredBlock(11, seed)
		vals := b.Scalars["s"]
		iso := 0.37

		var ref mesh.Mesh
		refRes := referenceExtract(b, vals, iso, &ref)
		ref.Weld(1e-9)

		var welded mesh.Mesh
		r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
		res := ExtractRange(b, vals, iso, r, &welded)

		if res != refRes {
			t.Fatalf("seed %d: counters %+v, reference %+v", seed, res, refRes)
		}
		if res.Triangles == 0 {
			t.Fatalf("seed %d: degenerate test, no surface", seed)
		}
		if welded.NumTriangles() != ref.NumTriangles() {
			t.Fatalf("seed %d: %d triangles, reference %d", seed, welded.NumTriangles(), ref.NumTriangles())
		}
		if welded.NumVertices() != ref.NumVertices() {
			t.Fatalf("seed %d: %d vertices, reference welded %d", seed, welded.NumVertices(), ref.NumVertices())
		}

		// Vertex sets agree position-by-position.
		wset, rset := vertexSet(&welded), vertexSet(&ref)
		for key := range rset {
			if wset[key] != rset[key] {
				t.Fatalf("seed %d: vertex %v has multiplicity %d, reference %d", seed, key, wset[key], rset[key])
			}
		}

		// Triangle topology agrees as a multiset of canonical corner triples.
		tris := map[string]int{}
		for i := 0; i < welded.NumTriangles(); i++ {
			tris[triKey(&welded, i)]++
		}
		for i := 0; i < ref.NumTriangles(); i++ {
			k := triKey(&ref, i)
			tris[k]--
			if tris[k] < 0 {
				t.Fatalf("seed %d: reference triangle %s missing from welded output", seed, k)
			}
		}
		for k, n := range tris {
			if n != 0 {
				t.Fatalf("seed %d: welded output has %d extra of triangle %s", seed, n, k)
			}
		}
	}
}

// TestExtractorWeldedByConstruction checks the headline property: the
// Extractor's output has no duplicate vertices to begin with, and a closed
// surface is watertight (every edge shared by exactly two triangles) without
// any Weld pass.
func TestExtractorWeldedByConstruction(t *testing.T) {
	c := mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	b := scalarBlock(13, func(p mathx.Vec3) float64 {
		d := p.Sub(c)
		return d.Dot(d)
	})
	var m mesh.Mesh
	ExtractBlock(b, "s", 0.09, &m)
	if m.NumTriangles() == 0 {
		t.Fatal("no surface")
	}
	if removed := m.Weld(1e-7); removed != 0 {
		t.Fatalf("Weld removed %d vertices from welded-by-construction output", removed)
	}
	edges := map[[2]uint32]int{}
	for tr := 0; tr < len(m.Indices); tr += 3 {
		tri := [3]uint32{m.Indices[tr], m.Indices[tr+1], m.Indices[tr+2]}
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
			t.Fatalf("edge %v shared by %d triangles, want 2", e, n)
		}
	}
}

// TestExtractorCellMatchesRange checks that the per-cell entry point
// (progressive refinement, streamed vortex) produces the same surface as the
// slab scan, including across the face-reuse fast path.
func TestExtractorCellMatchesRange(t *testing.T) {
	b := jitteredBlock(9, 7)
	vals := b.Scalars["s"]
	iso := 0.37

	var byRange mesh.Mesh
	r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
	res := ExtractRange(b, vals, iso, r, &byRange)

	var byCell mesh.Mesh
	e := NewExtractor(b, &byCell)
	defer e.Close()
	tris := 0
	for ck := 0; ck < b.NK-1; ck++ {
		for cj := 0; cj < b.NJ-1; cj++ {
			for ci := 0; ci < b.NI-1; ci++ {
				tris += e.Cell(vals, iso, ci, cj, ck)
			}
		}
	}
	if tris != res.Triangles || byCell.NumTriangles() != byRange.NumTriangles() {
		t.Fatalf("cell path: %d triangles, range path %d", byCell.NumTriangles(), byRange.NumTriangles())
	}
	if byCell.NumVertices() != byRange.NumVertices() {
		t.Fatalf("cell path: %d vertices, range path %d", byCell.NumVertices(), byRange.NumVertices())
	}
	for i := 0; i < byRange.NumVertices(); i++ {
		if byCell.Vertex(i).Sub(byRange.Vertex(i)).Norm() > 1e-12 {
			t.Fatalf("vertex %d differs between cell and range paths", i)
		}
	}
}

// TestExtractorRebindDropsStaleCache simulates a streaming flush: after
// Rebind the extractor must not reuse vertex indices that pointed into the
// old (reset) mesh.
func TestExtractorRebindDropsStaleCache(t *testing.T) {
	b := scalarBlock(5, func(p mathx.Vec3) float64 { return p.X })
	vals := b.Scalars["s"]
	m := &mesh.Mesh{}
	e := NewExtractor(b, m)
	defer e.Close()
	if e.Cell(vals, 0.5, 1, 0, 0) == 0 {
		t.Fatal("expected active cell")
	}
	m.Reset()
	e.Rebind(m)
	if tris := e.Cell(vals, 0.5, 1, 1, 0); tris == 0 {
		t.Fatal("expected active cell after rebind")
	}
	for _, idx := range m.Indices {
		if int(idx) >= m.NumVertices() {
			t.Fatalf("stale vertex index %d after Rebind (mesh has %d vertices)", idx, m.NumVertices())
		}
	}
}

// TestExtractRangeAllocs is the allocation regression guard for the hot
// path: with a warm pool and a reused target mesh, a steady-state extraction
// should allocate (almost) nothing.
func TestExtractRangeAllocs(t *testing.T) {
	c := mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	b := scalarBlock(21, func(p mathx.Vec3) float64 {
		d := p.Sub(c)
		return d.Dot(d)
	})
	vals := b.Scalars["s"]
	r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
	var m mesh.Mesh
	ExtractRange(b, vals, 0.09, r, &m) // warm the pool and the mesh capacity
	runtime.GC()                       // don't start mid-cycle
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset()
		ExtractRange(b, vals, 0.09, r, &m)
	})
	// The pool can miss occasionally (GC between runs), costing a handful of
	// allocations to rebuild the extractor scratch; anything beyond one full
	// miss means the reuse pattern regressed. (TestRangeAllocatesNothing pins
	// the strict 0 allocs/op on a pool-free persistent extractor.)
	if allocs > 8 {
		t.Fatalf("ExtractRange steady state allocates %v times per run, want ≤ 8", allocs)
	}
}

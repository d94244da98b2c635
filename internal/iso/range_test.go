package iso

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// referenceRange is the scan Range must reproduce: every cell of r in
// row-major order, classified by the reference activeCell and counted by the
// reference extractCell, with an active cell's triangles emitted through
// e.Cell so the welded mesh is comparable byte for byte.
func referenceRange(t *testing.T, e *Extractor, b *grid.Block, vals []float32, iso float64, r grid.CellRange) Result {
	t.Helper()
	var res Result
	var soup mesh.Mesh
	for ck := r.Lo[2]; ck < r.Hi[2]; ck++ {
		for cj := r.Lo[1]; cj < r.Hi[1]; cj++ {
			for ci := r.Lo[0]; ci < r.Hi[0]; ci++ {
				res.CellsVisited++
				if !activeCell(b, vals, iso, ci, cj, ck) {
					continue
				}
				res.ActiveCells++
				want := extractCell(b, vals, iso, ci, cj, ck, &soup)
				if got := e.Cell(vals, iso, ci, cj, ck); got != want {
					t.Fatalf("cell (%d,%d,%d) iso %v: Cell emitted %d triangles, reference %d", ci, cj, ck, iso, got, want)
				}
				res.Triangles += want
			}
		}
	}
	return res
}

// rowBlock is a jittered block whose rows hold cells cells, with values on a
// 0.25 grid in [-1, 1] (so an iso on that grid equals node values) and a
// NaN at every nanEvery-th node (none for 0).
func rowBlock(cells int, seed int64, nanEvery int) *grid.Block {
	rng := rand.New(rand.NewSource(seed))
	b := grid.NewBlock(grid.BlockID{Dataset: "t", Block: cells}, cells+1, 4, 3)
	s := b.EnsureScalar("s")
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			for i := 0; i < b.NI; i++ {
				b.SetPoint(i, j, k, mathx.Vec3{
					X: float64(i) + 0.3*rng.Float64(),
					Y: float64(j) + 0.3*rng.Float64(),
					Z: float64(k) + 0.3*rng.Float64(),
				})
				n := b.Index(i, j, k)
				s[n] = float32(rng.Intn(9)-4) / 4
				if nanEvery > 0 && n%nanEvery == 0 {
					s[n] = float32(math.NaN())
				}
			}
		}
	}
	return b
}

// rangesOf are the whole block and sub-ranges with non-zero Lo on every
// axis the block allows.
func rangesOf(b *grid.Block) []grid.CellRange {
	ni, nj, nk := b.NI-1, b.NJ-1, b.NK-1
	rs := []grid.CellRange{
		{Hi: [3]int{ni, nj, nk}},
		{Lo: [3]int{0, 1, 1}, Hi: [3]int{ni, nj, nk}},
		{Lo: [3]int{0, nj / 2, 0}, Hi: [3]int{ni, nj, nk / 2}},
	}
	if ni > 2 {
		rs = append(rs,
			grid.CellRange{Lo: [3]int{1, 0, 0}, Hi: [3]int{ni, nj, nk}},
			grid.CellRange{Lo: [3]int{ni / 3, 1, 0}, Hi: [3]int{ni - 1, nj, nk}})
	}
	return rs
}

// TestRangeMatchesReference is the property test of the bit-parallel scan:
// on every block, range and iso value, Range yields the mesh bytes and the
// counters of the reference scan, and CellsVisited is the range's cell
// count. The blocks cover rows of 1, 63, 64, 65 and 129 cells (either side
// of a word boundary), NaN nodes, iso values equal to node values, and real
// engine and propfan blocks; one held extractor runs them all, so its bitmap
// is reused across shapes.
func TestRangeMatchesReference(t *testing.T) {
	type tcase struct {
		b    *grid.Block
		vals []float32
		isos []float64
	}
	var cases []tcase
	for i, cells := range []int{1, 63, 64, 65, 129} {
		for _, nanEvery := range []int{0, 7} {
			b := rowBlock(cells, int64(i), nanEvery)
			cases = append(cases, tcase{b, b.Scalars["s"], []float64{0, 0.25, -1, 1, 0.1, 5, -5}})
		}
	}
	engine, propfan := dataset.Engine(), dataset.Propfan()
	for _, blk := range []int{0, 11} {
		b := engine.Generate(1, blk)
		cases = append(cases, tcase{b, b.Scalars["pressure"], []float64{300, 500, 700, float64(b.Scalars["pressure"][40])}})
	}
	for _, blk := range []int{3, 100} {
		b := propfan.Generate(0, blk)
		cases = append(cases, tcase{b, b.Scalars["pressure"], []float64{-700, -1000, float64(b.Scalars["pressure"][7])}})
	}

	var got, want mesh.Mesh
	e := NewUnpooledExtractor(cases[0].b, &got)
	ref := NewUnpooledExtractor(cases[0].b, &want)
	sawSurface, sawEmpty := false, false
	for _, c := range cases {
		for _, r := range rangesOf(c.b) {
			for _, iso := range c.isos {
				got.Reset()
				want.Reset()
				e.Reset(c.b, &got)
				ref.Reset(c.b, &want)
				res := e.Range(c.vals, iso, r)
				wres := referenceRange(t, ref, c.b, c.vals, iso, r)
				if res != wres || res.CellsVisited != r.Cells() {
					t.Fatalf("block %v range %v iso %v: Range %+v, reference %+v (%d cells)",
						c.b.ID, r, iso, res, wres, r.Cells())
				}
				if !bytes.Equal(got.EncodeBinary(), want.EncodeBinary()) {
					t.Fatalf("block %v range %v iso %v: mesh bytes differ from the reference scan", c.b.ID, r, iso)
				}
				if res.Triangles > 0 {
					sawSurface = true
				} else {
					sawEmpty = true
				}
			}
		}
	}
	if !sawSurface || !sawEmpty {
		t.Fatal("degenerate sweep: need both surface and no-crossing cases")
	}
}

// TestRangeAllocatesNothing guards the scan's steady state: with a warm
// extractor and mesh, Range allocates nothing — the node bitmap is reused.
func TestRangeAllocatesNothing(t *testing.T) {
	c := mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	b := scalarBlock(21, func(p mathx.Vec3) float64 {
		d := p.Sub(c)
		return d.Dot(d)
	})
	vals := b.Scalars["s"]
	r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
	var m mesh.Mesh
	e := NewExtractor(b, &m)
	defer e.Close()
	e.Range(vals, 0.09, r) // warm the mesh capacity, edge table and bitmap
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset()
		e.Rebind(&m)
		e.Range(vals, 0.09, r)
	})
	if allocs != 0 {
		t.Fatalf("Range steady state allocates %v times per run, want 0", allocs)
	}
}

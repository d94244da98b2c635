package iso

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// TestCellCasesMatchTetLoop checks all 256 cases of the table against the
// per-tetrahedron loop, triangle by triangle: a lone cell with the case's
// corner mask, jittered corners, and corners that are not below iso set at
// random above it, at it (not below by the kernel's test) or to NaN. With
// nothing cached, every cut edge makes a vertex, so the vertex order is the
// case's edge order.
func TestCellCasesMatchTetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := grid.NewBlock(grid.BlockID{Dataset: "t"}, 2, 2, 2)
	vals := b.EnsureScalar("s")
	corners := b.CellCorners(0, 0, 0)
	for mask := 0; mask < 256; mask++ {
		for trial := 0; trial < 3; trial++ {
			for n, gi := range corners {
				b.Points[3*gi] = float32(cornerBits[n]&1) + 0.3*rng.Float32()
				b.Points[3*gi+1] = float32(cornerBits[n]>>1&1) + 0.3*rng.Float32()
				b.Points[3*gi+2] = float32(cornerBits[n]>>2) + 0.3*rng.Float32()
				switch {
				case mask>>n&1 != 0:
					vals[gi] = -0.1 - rng.Float32()
				case rng.Intn(3) == 0:
					vals[gi] = 0
				case rng.Intn(2) == 0:
					vals[gi] = float32(math.NaN())
				default:
					vals[gi] = 0.1 + rng.Float32()
				}
			}
			var got, want mesh.Mesh
			e := NewUnpooledExtractor(b, &got)
			o := newTetOracle(b, &want)
			gotTris, wantTris := e.Cell(vals, 0, 0, 0, 0), o.cell(vals, 0, 0, 0, 0)
			if gotTris != wantTris || got.NumTriangles() != want.NumTriangles() {
				t.Fatalf("case %08b: table emits %d triangles, tet loop %d", mask, gotTris, wantTris)
			}
			for tri := 0; tri < want.NumTriangles(); tri++ {
				for c := 0; c < 3; c++ {
					gv, wv := got.Indices[3*tri+c], want.Indices[3*tri+c]
					if gv != wv || !slices.Equal(positionBits(&got, gv), positionBits(&want, wv)) {
						t.Fatalf("case %08b triangle %d: table corner %d is vertex %d at %v, tet loop vertex %d at %v",
							mask, tri, c, gv, got.Vertex(int(gv)), wv, want.Vertex(int(wv)))
					}
				}
			}
			if int(cellCases[mask].nEdges) != want.NumVertices() || !bytes.Equal(got.EncodeBinary(), want.EncodeBinary()) {
				t.Fatalf("case %08b: table mesh (%d cut edges) differs from the tet loop's (%d vertices)",
					mask, cellCases[mask].nEdges, want.NumVertices())
			}
		}
	}
}

// positionBits returns the bits of vertex v's coordinates, so NaN
// coordinates compare equal when their bits do.
func positionBits(m *mesh.Mesh, v uint32) []uint32 {
	bits := make([]uint32, 3)
	for i, x := range m.Positions[3*v : 3*v+3] {
		bits[i] = math.Float32bits(x)
	}
	return bits
}

// randomBlock is a jittered block of random shape — rows of 1 to 68 cells,
// half of them 62 to 65, either side of a 64-bit word — with values on a 0.25 grid in
// [-1, 1], so iso values on that grid equal node values, and NaN at about
// one node in twenty.
func randomBlock(rng *rand.Rand) *grid.Block {
	ni := 2 + rng.Intn(68)
	if rng.Intn(2) == 0 {
		ni = 63 + rng.Intn(4)
	}
	b := grid.NewBlock(grid.BlockID{Dataset: "t", Block: ni}, ni, 2+rng.Intn(4), 2+rng.Intn(4))
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
				if rng.Intn(20) == 0 {
					s[n] = float32(math.NaN())
				}
			}
		}
	}
	return b
}

// randomRange is a non-empty cell range of b, the whole block one time in
// four.
func randomRange(rng *rand.Rand, b *grid.Block) grid.CellRange {
	cells := [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}
	if rng.Intn(4) == 0 {
		return grid.CellRange{Hi: cells}
	}
	var r grid.CellRange
	for d, n := range cells {
		r.Lo[d] = rng.Intn(n)
		r.Hi[d] = r.Lo[d] + 1 + rng.Intn(n-r.Lo[d])
	}
	return r
}

// TestRangeMatchesTetOracle runs the table-driven Range and the
// per-tetrahedron oracle through one random sequence of ranges, block
// switches (Reset, carrying the unflushed mesh over as iso.viewer does) and
// packet flushes (mesh Reset + Rebind). Every range must give the same
// counters and every packet the same wire bytes: vertex order, vertex reuse
// across ranges and cells, and forgetting at Reset and Rebind all agree.
func TestRangeMatchesTetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	blocks := make([]*grid.Block, 5)
	for i := range blocks {
		blocks[i] = randomBlock(rng)
	}
	var got, want mesh.Mesh
	b := blocks[0]
	e := NewUnpooledExtractor(b, &got)
	o := newTetOracle(b, &want)
	packets, tris := 0, 0
	flush := func(step int) {
		if !bytes.Equal(got.EncodeBinary(), want.EncodeBinary()) {
			t.Fatalf("step %d: packet of %d triangles differs from the oracle's (%d)", step, got.NumTriangles(), want.NumTriangles())
		}
		packets++
		tris += got.NumTriangles()
		got.Reset()
		want.Reset()
		e.Rebind(&got)
		o.Rebind(&want)
	}
	for step := 0; step < 600; step++ {
		switch rng.Intn(10) {
		case 0:
			b = blocks[rng.Intn(len(blocks))]
			e.Reset(b, &got)
			o.Reset(b, &want)
		case 1:
			flush(step)
		default:
			vals := b.Scalars["s"]
			iso := float64(rng.Intn(9)-4) / 4
			switch rng.Intn(3) {
			case 0:
				iso = float64(vals[rng.Intn(len(vals))]) // a node value, possibly NaN
			case 1:
				iso += 0.1
			}
			r := randomRange(rng, b)
			if res, wres := e.Range(vals, iso, r), o.scan(vals, iso, r); res != wres {
				t.Fatalf("step %d: block %v range %v iso %v: Range %+v, oracle %+v", step, b.ID, r, iso, res, wres)
			}
		}
	}
	flush(-1)
	t.Logf("%d packets, %d triangles", packets, tris)
	if packets < 20 || tris < 1000 {
		t.Fatalf("degenerate sequence: %d packets, %d triangles", packets, tris)
	}
}

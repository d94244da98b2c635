package iso

import (
	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// The reference kernels. The seed's per-cell pair — a separate active test
// and an unwelded triangulation, loading every corner twice — pins the
// surface the Extractor emits; tetOracle, the welded per-tetrahedron loop the
// case table replaced, pins the order it emits it in.

// activeCell reports whether cell (ci,cj,ck) straddles the iso value, i.e.
// at least one corner is below and one at-or-above.
func activeCell(b *grid.Block, vals []float32, iso float64, ci, cj, ck int) bool {
	c := b.CellCorners(ci, cj, ck)
	below, above := false, false
	for _, idx := range c {
		if float64(vals[idx]) < iso {
			below = true
		} else {
			above = true
		}
		if below && above {
			return true
		}
	}
	return false
}

// extractCell triangulates the iso-surface fragment inside one cell,
// appending to m, and returns the number of triangles added. It is the
// unwelded reference kernel: every triangle corner becomes a fresh vertex,
// so a post-hoc Weld is needed to deduplicate — the Extractor welds by
// construction instead.
func extractCell(b *grid.Block, vals []float32, iso float64, ci, cj, ck int, m *mesh.Mesh) int {
	corners := b.CellCorners(ci, cj, ck)
	var pos [8]mathx.Vec3
	var val [8]float64
	for n, idx := range corners {
		pos[n] = mathx.Vec3{
			X: float64(b.Points[3*idx]),
			Y: float64(b.Points[3*idx+1]),
			Z: float64(b.Points[3*idx+2]),
		}
		val[n] = float64(vals[idx])
	}
	added := 0
	for _, tet := range tets {
		mask := 0
		for i, c := range tet {
			if val[c] < iso {
				mask |= 1 << i
			}
		}
		tri := tetTriangles[mask]
		for t := 0; t+2 < len(tri) && tri[t] >= 0; t += 3 {
			var vid [3]uint32
			for e := 0; e < 3; e++ {
				a := tet[tetEdges[tri[t+e]][0]]
				c := tet[tetEdges[tri[t+e]][1]]
				va, vc := val[a], val[c]
				denom := vc - va
				var f float64
				if denom != 0 {
					f = (iso - va) / denom
				} else {
					f = 0.5
				}
				f = mathx.Clamp(f, 0, 1)
				p := pos[a].Lerp(pos[c], f)
				vid[e] = m.AddVertex(p)
			}
			m.AddTriangle(vid[0], vid[1], vid[2])
			added++
		}
	}
	return added
}

// tetOracle is the welded kernel before the case table: each of the cell's
// six tetrahedra in turn, every triangle corner looked up in the edge table
// by its cell edge, oriented at run time by comparing the two global node
// indices. It drives the embedded Extractor's edge table, generation and
// target mesh, so Reset and Rebind forget exactly what they forget for the
// table-driven kernel, and its mesh bytes and counters can be compared with
// that kernel's.
type tetOracle struct {
	*Extractor
	g [8]int        // global node index per corner
	v [8]float64    // corner values
	p [8]mathx.Vec3 // corner coordinates
}

func newTetOracle(b *grid.Block, m *mesh.Mesh) *tetOracle {
	return &tetOracle{Extractor: NewUnpooledExtractor(b, m)}
}

// cell triangulates cell (ci,cj,ck) when it straddles iso and returns the
// number of triangles added.
func (o *tetOracle) cell(vals []float32, iso float64, ci, cj, ck int) int {
	below, above := false, false
	for n, gi := range o.b.CellCorners(ci, cj, ck) {
		o.g[n] = gi
		o.v[n] = float64(vals[gi])
		o.p[n] = mathx.Vec3{X: float64(o.b.Points[3*gi]), Y: float64(o.b.Points[3*gi+1]), Z: float64(o.b.Points[3*gi+2])}
		if o.v[n] < iso {
			below = true
		} else {
			above = true
		}
	}
	if !below || !above {
		return 0
	}
	added := 0
	for _, tet := range tets {
		mask := 0
		for i, c := range tet {
			if o.v[c] < iso {
				mask |= 1 << i
			}
		}
		tri := &tetTriangles[mask]
		for t := 0; t+2 < len(tri) && tri[t] >= 0; t += 3 {
			a := o.edgeVertex(iso, tet[tetEdges[tri[t]][0]], tet[tetEdges[tri[t]][1]])
			b := o.edgeVertex(iso, tet[tetEdges[tri[t+1]][0]], tet[tetEdges[tri[t+1]][1]])
			c := o.edgeVertex(iso, tet[tetEdges[tri[t+2]][0]], tet[tetEdges[tri[t+2]][1]])
			o.m.AddTriangle(a, b, c)
			added++
		}
	}
	return added
}

// edgeVertex returns the vertex on the edge between corners a and c,
// interpolated from the corner with the lower global node index.
func (o *tetOracle) edgeVertex(iso float64, a, c int) uint32 {
	lo := o.g[a]
	if lo > o.g[c] {
		lo = o.g[c]
		a, c = c, a
	}
	slot := &o.edges[edgeDirs*lo+int(cornerBits[a]^cornerBits[c])-1]
	if uint32(*slot>>32) == o.gen {
		return uint32(*slot)
	}
	va, vc := o.v[a], o.v[c]
	f := 0.5
	if denom := vc - va; denom != 0 {
		f = mathx.Clamp((iso-va)/denom, 0, 1)
	}
	id := o.m.AddVertex(o.p[a].Lerp(o.p[c], f))
	*slot = uint64(o.gen)<<32 | uint64(id)
	return id
}

// scan runs cell over every cell of r in row-major order, counting as
// Range does.
func (o *tetOracle) scan(vals []float32, iso float64, r grid.CellRange) Result {
	var res Result
	for ck := r.Lo[2]; ck < r.Hi[2]; ck++ {
		for cj := r.Lo[1]; cj < r.Hi[1]; cj++ {
			for ci := r.Lo[0]; ci < r.Hi[0]; ci++ {
				res.CellsVisited++
				if tris := o.cell(vals, iso, ci, cj, ck); tris > 0 {
					res.ActiveCells++
					res.Triangles += tris
				}
			}
		}
	}
	return res
}

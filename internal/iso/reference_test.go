package iso

import (
	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// The seed's per-cell reference kernels: a separate active test and an
// unwelded triangulation, loading every corner twice. The equivalence tests
// pin the fused, welded Extractor against them.

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

package iso

import (
	"sync"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// Extractor is the welded marching-tetrahedra kernel: it triangulates cells
// of one block into one target mesh, emitting each surface vertex exactly
// once. A vertex lies on an intersected cell edge, and an edge is identified
// by the pair of global node indices it connects — the same pair in every
// tetrahedron and every cell that shares the edge, because the 6-tet
// decomposition is consistent across faces. The edge→vertex cache therefore
// makes the output welded by construction, with no post-hoc Weld pass and
// roughly 6× fewer vertex bytes than triangle-soup emission. The cache is a
// table indexed directly by edge (see edgeDir); it costs 56 bytes per node
// of the largest block the extractor has seen.
//
// The cell scan is fused: corner values are loaded once per cell (the
// i-neighbour's shared face is shifted over instead of reloaded), the
// active-cell test runs on the loaded corners, and only active cells touch
// the coordinate array. Interpolation is oriented from the lower to the
// higher global node index, so a vertex's position does not depend on which
// cell reached its edge first.
type Extractor struct {
	b   *grid.Block
	m   *mesh.Mesh
	off [8]int // linear corner offsets, hoisted out of the scan

	// edges maps an edge to the mesh vertex index of the iso crossing on it:
	// the edge from global node lo in direction edgeDir owns slot
	// 7·lo+edgeDir, which holds gen<<32 | vertex index. A slot stamped with
	// another generation is empty, so Reset and Rebind forget every cached
	// vertex by bumping gen, and the table is cleared only when gen wraps.
	edges []uint64
	gen   uint32

	g [8]int        // global node index per corner of the current cell
	v [8]float64    // corner values
	p [8]mathx.Vec3 // corner coordinates, loaded for active cells only
}

// extractorPool keeps extractor scratch (most importantly the edge table)
// warm across blocks and requests.
var extractorPool = sync.Pool{New: func() any { return new(Extractor) }}

// edgeDirs is the number of edge directions per node, and so the edge
// table's slots per node.
const edgeDirs = 7

// cornerBits is the (i,j,k) offset of each CellCorners corner, packed as
// i | j<<1 | k<<2.
var cornerBits = [8]uint8{0, 1, 3, 2, 4, 5, 7, 6}

// edgeDir numbers the direction of the edge between two corners of a cell.
// Every edge of the 6-tet decomposition joins a corner to one whose offset
// contains its own — the three axes, the three face diagonals and the body
// diagonal — so the XOR of the two offsets is one of edgeDirs non-zero
// patterns, numbered from 0. The table is symmetric; pairs no tetrahedron
// joins are never looked up.
var edgeDir = func() (t [8][8]uint8) {
	for a := range t {
		for c := range t[a] {
			t[a][c] = (cornerBits[a] ^ cornerBits[c]) - 1
		}
	}
	return t
}()

// NewExtractor returns a pooled extractor bound to block b and target mesh
// m. Pair with Close to return the scratch to the pool.
func NewExtractor(b *grid.Block, m *mesh.Mesh) *Extractor {
	e := extractorPool.Get().(*Extractor)
	e.Reset(b, m)
	return e
}

// Reset rebinds the extractor to a new block and target mesh and empties the
// edge cache (whose vertex indices only mean anything for the old pair),
// growing its table if b has more nodes than any block before it.
func (e *Extractor) Reset(b *grid.Block, m *mesh.Mesh) {
	e.b, e.m = b, m
	e.off = b.CellOffsets()
	if n := edgeDirs * b.NumNodes(); n > len(e.edges) {
		e.edges = make([]uint64, n)
	}
	e.forget()
}

// Rebind points the extractor at a new (or just reset) target mesh on the
// same block. Streaming commands call it after flushing a packet: the mesh
// restarts empty, so the cached vertex indices must be dropped with it.
func (e *Extractor) Rebind(m *mesh.Mesh) {
	e.m = m
	e.forget()
}

// forget empties the edge cache by starting a new generation. Generation 0
// is the stamp of a slot never written, so when the counter wraps to it the
// table is cleared and counting restarts at 1.
func (e *Extractor) forget() {
	e.gen++
	if e.gen == 0 {
		clear(e.edges)
		e.gen = 1
	}
}

// Close releases the extractor's scratch back to the pool.
func (e *Extractor) Close() {
	e.b, e.m = nil, nil
	extractorPool.Put(e)
}

// Cell runs the fused active-test-and-extract on cell (ci,cj,ck): corner
// values are loaded once, and triangulation happens only when they straddle
// iso. It returns the number of triangles added (0 means the cell is not
// active — an active cell always yields at least one triangle, since every
// tetrahedron contains the main diagonal).
func (e *Extractor) Cell(vals []float32, iso float64, ci, cj, ck int) int {
	i0 := e.b.Index(ci, cj, ck)
	below, above := false, false
	for n := 0; n < 8; n++ {
		gi := i0 + e.off[n]
		val := float64(vals[gi])
		e.g[n] = gi
		e.v[n] = val
		if val < iso {
			below = true
		} else {
			above = true
		}
	}
	if !below || !above {
		return 0
	}
	e.loadCorners()
	return e.emit(iso)
}

// Range triangulates all active cells in the half-open cell range with the
// fused slab-ordered scan: stepping +i keeps the shared face of the previous
// cell (corners 1,2,5,6 become 0,3,4,7), so a step reads only the four new
// corner values, and the active test and the extraction share them.
func (e *Extractor) Range(vals []float32, iso float64, r grid.CellRange) Result {
	var res Result
	b := e.b
	for ck := r.Lo[2]; ck < r.Hi[2]; ck++ {
		for cj := r.Lo[1]; cj < r.Hi[1]; cj++ {
			i0 := b.Index(r.Lo[0], cj, ck)
			for ci := r.Lo[0]; ci < r.Hi[0]; ci, i0 = ci+1, i0+1 {
				e.scanCell(vals, iso, i0, ci == r.Lo[0], &res)
			}
		}
	}
	return res
}

// scanCell runs the fused load-test-extract step on the cell whose corner 0
// has linear index i0. fresh loads all 8 corners; otherwise the face shared
// with the previous cell along +i is shifted over and only the 4 new corners
// are read.
func (e *Extractor) scanCell(vals []float32, iso float64, i0 int, fresh bool, res *Result) {
	res.CellsVisited++
	if fresh {
		for n := 0; n < 8; n++ {
			gi := i0 + e.off[n]
			e.g[n] = gi
			e.v[n] = float64(vals[gi])
		}
	} else {
		// Reuse the face shared with the previous cell.
		e.g[0], e.g[3], e.g[4], e.g[7] = e.g[1], e.g[2], e.g[5], e.g[6]
		e.v[0], e.v[3], e.v[4], e.v[7] = e.v[1], e.v[2], e.v[5], e.v[6]
		for _, n := range [...]int{1, 2, 5, 6} {
			gi := i0 + e.off[n]
			e.g[n] = gi
			e.v[n] = float64(vals[gi])
		}
	}
	below, above := false, false
	for n := 0; n < 8; n++ {
		if e.v[n] < iso {
			below = true
		} else {
			above = true
		}
	}
	if below && above {
		res.ActiveCells++
		e.loadCorners()
		res.Triangles += e.emit(iso)
	}
}

// RangeIndexed is Range guided by a min/max brick index: at every brick
// boundary along i it consults idx and jumps over runs of cells whose brick
// range provably excludes iso. Cells that are visited are visited in exactly
// the same row-major order as Range and extracted by the same fused kernel,
// so the output mesh is bit-identical to the full scan — the index only
// removes work, never reorders or approximates it. Skipped cells are counted
// in CellsSkipped and do not contribute to CellsVisited (the cost model
// prices only touched cells, which is the point of the index).
func (e *Extractor) RangeIndexed(vals []float32, iso float64, r grid.CellRange, idx *grid.MinMaxIndex) Result {
	if idx == nil {
		return e.Range(vals, iso, r)
	}
	var res Result
	b := e.b
	for ck := r.Lo[2]; ck < r.Hi[2]; ck++ {
		for cj := r.Lo[1]; cj < r.Hi[1]; cj++ {
			i0 := b.Index(r.Lo[0], cj, ck)
			// fresh forces a full 8-corner load: at row start and after
			// every skip, the previous cell's face is not the neighbour's.
			fresh := true
			for ci := r.Lo[0]; ci < r.Hi[0]; {
				if next := idx.SkipTo(ci, cj, ck, iso, r.Hi[0]); next > ci {
					res.CellsSkipped += next - ci
					i0 += next - ci
					ci = next
					fresh = true
					continue
				}
				// Scan to the end of this brick; the index has nothing to
				// say until the next boundary.
				e.scanCell(vals, iso, i0, fresh, &res)
				fresh = false
				ci++
				i0++
				for ci < r.Hi[0] && ci%grid.MinMaxBrick != 0 {
					e.scanCell(vals, iso, i0, false, &res)
					ci++
					i0++
				}
			}
		}
	}
	return res
}

// loadCorners fills the corner coordinates of the current cell. Only active
// cells pay for this — the scan itself touches nothing but values.
func (e *Extractor) loadCorners() {
	pts := e.b.Points
	for n := 0; n < 8; n++ {
		i3 := 3 * e.g[n]
		e.p[n] = mathx.Vec3{
			X: float64(pts[i3]),
			Y: float64(pts[i3+1]),
			Z: float64(pts[i3+2]),
		}
	}
}

// emit triangulates the six tetrahedra of the loaded cell, returning the
// number of triangles appended.
func (e *Extractor) emit(iso float64) int {
	added := 0
	for ti := range tets {
		tet := &tets[ti]
		mask := 0
		for i, c := range tet {
			if e.v[c] < iso {
				mask |= 1 << i
			}
		}
		tri := &tetTriangles[mask]
		for t := 0; t+2 < len(tri) && tri[t] >= 0; t += 3 {
			a := e.edgeVertex(iso, tet[tetEdges[tri[t]][0]], tet[tetEdges[tri[t]][1]])
			b := e.edgeVertex(iso, tet[tetEdges[tri[t+1]][0]], tet[tetEdges[tri[t+1]][1]])
			c := e.edgeVertex(iso, tet[tetEdges[tri[t+2]][0]], tet[tetEdges[tri[t+2]][1]])
			e.m.AddTriangle(a, b, c)
			added++
		}
	}
	return added
}

// edgeVertex returns the mesh vertex on the cell edge between corners a and
// c, interpolating and appending it on first encounter and serving every
// later tetrahedron or cell from the cache.
func (e *Extractor) edgeVertex(iso float64, a, c int) uint32 {
	lo := e.g[a]
	if lo > e.g[c] {
		lo = e.g[c]
		a, c = c, a
	}
	slot := &e.edges[edgeDirs*lo+int(edgeDir[a][c])]
	if uint32(*slot>>32) == e.gen {
		return uint32(*slot)
	}
	va, vc := e.v[a], e.v[c]
	f := 0.5
	if denom := vc - va; denom != 0 {
		f = mathx.Clamp((iso-va)/denom, 0, 1)
	}
	id := e.m.AddVertex(e.p[a].Lerp(e.p[c], f))
	*slot = uint64(e.gen)<<32 | uint64(id)
	return id
}

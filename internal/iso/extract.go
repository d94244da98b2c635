package iso

import (
	"math/bits"
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
// The range scan (Range) classifies cells from a bitmap of the nodes below
// iso, so only active cells load corner values and touch the coordinate
// array. Interpolation is oriented from the lower to the higher global node
// index, so a vertex's position does not depend on which cell reached its
// edge first.
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

	// below is Range's node bitmap, one bit per node of the range, reused
	// across calls.
	below []uint64

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

// Range triangulates every active cell of the half-open cell range, in
// row-major order. It classifies each node of the range once, into one bit
// of the below bitmap: set when the value is below iso, by the kernel's own
// test (a NaN is not below). A cell is active when its eight corner bits are
// neither all set nor all clear, so one row of cells is classified 64 at a
// time: OR and AND the four node rows around it, each word with its 1-bit
// shift, and the active cells are the bits of some &^ all. Only active cells
// load their corners and emit. CellsVisited counts every cell of the range:
// the cost model prices the scan, not the bitmap's shortcut.
func (e *Extractor) Range(vals []float32, iso float64, r grid.CellRange) Result {
	ni, nj, nk := r.Hi[0]-r.Lo[0], r.Hi[1]-r.Lo[1], r.Hi[2]-r.Lo[2]
	if ni <= 0 || nj <= 0 || nk <= 0 {
		return Result{}
	}
	res := Result{CellsVisited: r.Cells()}
	b := e.b
	// A node row holds the ni+1 nodes of one (j,k) line in w words; rows
	// are laid out j-major like the block, so the four rows around a row
	// of cells sit at offsets 0, w, jRow and jRow+w. One spare word ends
	// the bitmap, so the scan may read the word after any row's last.
	w := (ni + 64) / 64
	jRow := (nj + 1) * w
	if n := jRow*(nk+1) + 1; n > cap(e.below) {
		e.below = make([]uint64, n)
	}
	below := e.below[:jRow*(nk+1)+1]
	for k, row := 0, below; k <= nk; k++ {
		for j := 0; j <= nj; j, row = j+1, row[w:] {
			i0 := b.Index(r.Lo[0], r.Lo[1]+j, r.Lo[2]+k)
			classify(row[:w], vals[i0:i0+ni+1], iso)
		}
	}
	for ck := 0; ck < nk; ck++ {
		for cj := 0; cj < nj; cj++ {
			r00 := below[ck*jRow+cj*w:]
			r10, r01, r11 := r00[w:], r00[jRow:], r00[jRow+w:]
			i0 := b.Index(r.Lo[0], r.Lo[1]+cj, r.Lo[2]+ck)
			for wi := 0; 64*wi < ni; wi++ {
				// Cell c spans nodes c and c+1, so each bit is combined
				// with its successor, the top one with bit 0 of the next
				// word. In a row's last word that bit is past the row and
				// masked off with the cells past ni.
				some := r00[wi] | r10[wi] | r01[wi] | r11[wi]
				all := r00[wi] & r10[wi] & r01[wi] & r11[wi]
				some |= some>>1 | (r00[wi+1]|r10[wi+1]|r01[wi+1]|r11[wi+1])<<63
				all &= all>>1 | (r00[wi+1]&r10[wi+1]&r01[wi+1]&r11[wi+1])<<63
				active := some &^ all
				if n := ni - 64*wi; n < 64 {
					active &= 1<<uint(n) - 1
				}
				for ; active != 0; active &= active - 1 {
					e.loadCell(vals, i0+64*wi+bits.TrailingZeros64(active))
					res.ActiveCells++
					res.Triangles += e.emit(iso)
				}
			}
		}
	}
	return res
}

// classify sets bit i of dst when float64(vals[i]) < iso, and clears the
// bits past len(vals).
func classify(dst []uint64, vals []float32, iso float64) {
	for wi := range dst {
		var word uint64
		for i, v := range vals[64*wi : min(64*wi+64, len(vals))] {
			var bit uint64
			if float64(v) < iso {
				bit = 1
			}
			word |= bit << uint(i)
		}
		dst[wi] = word
	}
}

// loadCell loads the corner indices, values and coordinates of the cell
// whose corner 0 has linear index i0.
func (e *Extractor) loadCell(vals []float32, i0 int) {
	for n := 0; n < 8; n++ {
		gi := i0 + e.off[n]
		e.g[n] = gi
		e.v[n] = float64(vals[gi])
	}
	e.loadCorners()
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

package iso

import (
	"math/bits"
	"slices"
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
// table indexed directly by edge (see cellEdge); it costs 56 bytes per node
// of the largest block the extractor has seen.
//
// The range scan (Range) classifies cells from a bitmap of the nodes below
// iso, so only active cells load corner values. An active cell is
// triangulated from the case table (cellCases) of its corner mask, which
// names the edges it cuts, so only their corners touch the coordinate
// array. Interpolation is oriented from the lower to the higher global node
// index, so a vertex's position does not depend on which cell reached its
// edge first.
type Extractor struct {
	b    *grid.Block
	m    *mesh.Mesh
	off  [8]int            // linear corner offsets, hoisted out of the scan
	slot [numCellEdges]int // edge-table slot of each cell edge, relative to 7·i0

	// edges maps an edge to the mesh vertex index of the iso crossing on it:
	// the edge from global node lo in direction dir owns slot 7·lo+dir,
	// which holds gen<<32 | vertex index. A slot stamped with another
	// generation is empty, so Reset and Rebind forget every cached vertex by
	// bumping gen, and the table is cleared only when gen wraps.
	edges []uint64
	gen   uint32

	// below is Range's node bitmap, one bit per node of the range, reused
	// across calls.
	below []uint64

	v [8]float64    // corner values of the current cell
	p [8]mathx.Vec3 // its corner coordinates, loaded for the cut edges' corners only
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

// cellEdge is one edge of the 6-tet decomposition. Every such edge joins a
// corner to one whose offset bits contain its own — the three axes, the
// three face diagonals and the body diagonal — so lo, the contained corner,
// has the lower global node index in every block and every cell, and the
// XOR of the two offsets is one of edgeDirs non-zero patterns: dir is that
// pattern less one. The orientation is static, so nothing is compared at
// run time to pick the edge's owner.
type cellEdge struct{ lo, hi, dir uint8 }

// numCellEdges counts the distinct cell edges the six tetrahedra use: the
// 12 cube edges, 6 face diagonals and the main diagonal.
const numCellEdges = 19

// orient returns the cell edge between corners a and c, from its lower
// corner.
func orient(a, c int) cellEdge {
	if cornerBits[a]&^cornerBits[c] != 0 {
		a, c = c, a
	}
	return cellEdge{lo: uint8(a), hi: uint8(c), dir: cornerBits[a] ^ cornerBits[c] - 1}
}

// cellEdges numbers the cell edges in the order tets × tetEdges first
// reaches them.
var cellEdges = func() (es [numCellEdges]cellEdge) {
	n := 0
	for _, tet := range tets {
		for _, te := range tetEdges {
			if ed := orient(tet[te[0]], tet[te[1]]); !slices.Contains(es[:n], ed) {
				es[n] = ed
				n++
			}
		}
	}
	return es
}()

// cellCase is the triangulation of a cell with one corner mask: the cell
// edges it cuts, the corners those edges touch, and its triangles as
// indices into the cut edges.
type cellCase struct {
	nEdges, nTris uint8
	corners       uint8 // bit n set when a cut edge touches corner n
	edges         [numCellEdges]uint8
	tris          [3 * 2 * len(tets)]uint8
}

// cellCases maps each corner mask (bit n set when corner n is below iso, by
// the kernel's own test, so a NaN is not below) to its case. It is derived
// from tets and tetTriangles by walking the six tetrahedra in order, so a
// case's triangles are theirs, in their order, and its cut edges are listed
// in the order the triangles first reach them: emitting a case creates
// vertices in the order the per-tetrahedron loop did.
var cellCases = func() (t [256]cellCase) {
	for mask := range t {
		cs := &t[mask]
		for _, tet := range tets {
			tm := 0
			for i, n := range tet {
				tm |= (mask >> n & 1) << i
			}
			tri := &tetTriangles[tm]
			for k := 0; k+2 < len(tri) && tri[k] >= 0; k += 3 {
				for j, te := range tri[k : k+3] {
					ed := orient(tet[tetEdges[te][0]], tet[tetEdges[te][1]])
					id := uint8(slices.Index(cellEdges[:], ed))
					at := slices.Index(cs.edges[:cs.nEdges], id)
					if at < 0 {
						at = int(cs.nEdges)
						cs.edges[at] = id
						cs.nEdges++
						cs.corners |= 1<<ed.lo | 1<<ed.hi
					}
					cs.tris[3*int(cs.nTris)+j] = uint8(at)
				}
				cs.nTris++
			}
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
	for i, ed := range cellEdges {
		e.slot[i] = edgeDirs*e.off[ed.lo] + int(ed.dir)
	}
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
// values are loaded once into the corner mask, and triangulation happens
// only when they straddle iso. It returns the number of triangles added (0
// means the cell is not active — an active cell always yields at least one
// triangle, since every tetrahedron contains the main diagonal).
func (e *Extractor) Cell(vals []float32, iso float64, ci, cj, ck int) int {
	i0 := e.b.Index(ci, cj, ck)
	mask := e.load(vals, iso, i0)
	if mask == 0 || mask == 0xff {
		return 0
	}
	return e.emit(iso, i0, mask)
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
					c0 := i0 + 64*wi + bits.TrailingZeros64(active)
					res.ActiveCells++
					res.Triangles += e.emit(iso, c0, e.load(vals, iso, c0))
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

// load loads the corner values of the cell whose corner 0 has linear index
// i0 and returns its corner mask.
func (e *Extractor) load(vals []float32, iso float64, i0 int) uint8 {
	var mask uint8
	for n, off := range e.off {
		v := float64(vals[i0+off])
		e.v[n] = v
		if v < iso {
			mask |= 1 << n
		}
	}
	return mask
}

// emit triangulates the loaded cell whose corner 0 has linear index i0 and
// whose corner mask is mask, returning the number of triangles appended. It
// loads the coordinates of the corners the cut edges touch, looks each cut
// edge up in the edge table once, and interpolates and appends the vertex
// of an edge no earlier cell reached.
func (e *Extractor) emit(iso float64, i0 int, mask uint8) int {
	cs := &cellCases[mask]
	pts := e.b.Points
	for c := cs.corners; c != 0; c &= c - 1 {
		n := bits.TrailingZeros8(c)
		i3 := 3 * (i0 + e.off[n])
		e.p[n] = mathx.Vec3{X: float64(pts[i3]), Y: float64(pts[i3+1]), Z: float64(pts[i3+2])}
	}
	var ids [numCellEdges]uint32
	base := edgeDirs * i0
	for k, id := range cs.edges[:cs.nEdges] {
		slot := &e.edges[base+e.slot[id]]
		if uint32(*slot>>32) == e.gen {
			ids[k] = uint32(*slot)
			continue
		}
		ed := cellEdges[id]
		va, vc := e.v[ed.lo], e.v[ed.hi]
		f := 0.5
		if denom := vc - va; denom != 0 {
			f = mathx.Clamp((iso-va)/denom, 0, 1)
		}
		ids[k] = e.m.AddVertex(e.p[ed.lo].Lerp(e.p[ed.hi], f))
		*slot = uint64(e.gen)<<32 | uint64(ids[k])
	}
	tris := cs.tris[:3*int(cs.nTris)]
	for t := 0; t < len(tris); t += 3 {
		e.m.AddTriangle(ids[tris[t]], ids[tris[t+1]], ids[tris[t+2]])
	}
	return int(cs.nTris)
}

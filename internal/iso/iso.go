// Package iso implements isosurface extraction on curvilinear hexahedral
// blocks. Each cell is decomposed into six tetrahedra sharing the main
// diagonal and triangulated by marching tetrahedra, which is table-light and
// crack-free across cells because neighbouring cells agree on the shared
// faces' diagonals. The package works on raw value arrays so the same code
// triangulates stored fields (pressure) and lazily computed ones (λ2).
//
// The kernel is the Extractor (extract.go): a fused scan that reads each
// corner value once and welds vertices by construction through a
// direct-indexed edge table, so shared vertices are emitted exactly once per block.
// The equivalence tests check it against the seed's per-cell reference
// kernels, which live with them (reference_test.go).
package iso

import (
	"viracocha/internal/grid"
	"viracocha/internal/mesh"
)

// tets lists the six tetrahedra of a hexahedron in CellCorners order; every
// tet contains the main diagonal 0–6, which makes the decomposition
// consistent between face-adjacent cells.
var tets = [6][4]int{
	{0, 1, 2, 6},
	{0, 2, 3, 6},
	{0, 3, 7, 6},
	{0, 7, 4, 6},
	{0, 4, 5, 6},
	{0, 5, 1, 6},
}

// tetEdges are the six edges of a tetrahedron as corner-index pairs.
var tetEdges = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// tetTriangles maps the 16 inside/outside corner masks (bit i set ⇔ corner i
// below iso) to fans of edge indices; -1 terminates. Derived from the
// classic marching-tetrahedra case analysis.
var tetTriangles = [16][7]int{
	{-1},                   // 0000
	{0, 1, 2, -1},          // 0001: corner 0
	{0, 4, 3, -1},          // 0010: corner 1
	{1, 2, 4, 1, 4, 3, -1}, // 0011: corners 0,1
	{1, 3, 5, -1},          // 0100: corner 2
	{0, 3, 5, 0, 5, 2, -1}, // 0101: corners 0,2
	{0, 4, 5, 0, 5, 1, -1}, // 0110: corners 1,2
	{2, 4, 5, -1},          // 0111: corners 0,1,2 → around corner 3, flipped
	{2, 5, 4, -1},          // 1000: corner 3
	{0, 1, 5, 0, 5, 4, -1}, // 1001: corners 0,3
	{0, 5, 3, 0, 2, 5, -1}, // 1010: corners 1,3
	{1, 5, 3, -1},          // 1011: ~0100, flipped
	{1, 3, 4, 1, 4, 2, -1}, // 1100: corners 2,3
	{0, 3, 4, -1},          // 1101: ~0010, flipped
	{0, 2, 1, -1},          // 1110: ~0001, flipped
	{-1},                   // 1111
}

// Result summarizes an extraction over a set of cells for the cost model.
type Result struct {
	CellsVisited int
	ActiveCells  int
	Triangles    int
	// CellsSkipped counts cells a min/max brick index proved inactive
	// without touching their corner values (indexed scans only). Visited +
	// skipped equals the cell count of the scanned range.
	CellsSkipped int
}

// ExtractRange triangulates all active cells in the half-open cell range,
// appending to m. The output is welded within the call: the pooled Extractor
// deduplicates shared vertices across the whole range. Callers that extract
// several ranges into one mesh and want cross-range welding too should hold
// their own Extractor.
func ExtractRange(b *grid.Block, vals []float32, iso float64, r grid.CellRange, m *mesh.Mesh) Result {
	e := NewExtractor(b, m)
	defer e.Close()
	return e.Range(vals, iso, r)
}

// ExtractRangeIndexed is ExtractRange guided by a min/max brick index built
// over the same vals: bricks whose range excludes iso are skipped without
// loading a corner, and the output is bit-identical to the full scan. A nil
// index falls back to ExtractRange.
func ExtractRangeIndexed(b *grid.Block, vals []float32, iso float64, r grid.CellRange, idx *grid.MinMaxIndex, m *mesh.Mesh) Result {
	e := NewExtractor(b, m)
	defer e.Close()
	return e.RangeIndexed(vals, iso, r, idx)
}

// ExtractBlock triangulates a whole block for the named scalar field.
func ExtractBlock(b *grid.Block, field string, iso float64, m *mesh.Mesh) Result {
	vals, ok := b.Scalars[field]
	if !ok {
		panic("iso: missing field " + field + " on " + b.ID.String())
	}
	r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
	return ExtractRange(b, vals, iso, r, m)
}

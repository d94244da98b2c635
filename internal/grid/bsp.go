package grid

import "viracocha/internal/mathx"

// BSPTree is a binary space partition of a block's cell index domain, with
// per-node scalar ranges. The view-dependent isosurface command builds one
// per block, prunes subtrees that cannot contain the iso-value ("empty
// regions"), and traverses leaves front-to-back from the viewer (paper §6.3).
type BSPTree struct {
	Block *Block
	Field string
	root  *bspNode
	nodes int
}

type bspNode struct {
	lo, hi      [3]int // cell index range, half-open
	bounds      AABB
	smin, smax  float64
	axis        int
	left, right *bspNode
}

// LeafCells is the target number of cells per BSP leaf.
const LeafCells = 256

// BuildBSP constructs the tree for the given scalar field. The field must
// exist on the block.
func BuildBSP(b *Block, field string) *BSPTree {
	if !b.HasScalar(field) {
		panic("grid: BuildBSP on missing field " + field)
	}
	t := &BSPTree{Block: b, Field: field}
	t.root = t.build([3]int{0, 0, 0}, [3]int{b.NI - 1, b.NJ - 1, b.NK - 1})
	return t
}

// SizeBytes reports the approximate in-memory size of the tree for DMS
// cache accounting: traversal state only, not the block it was built from.
func (t *BSPTree) SizeBytes() int64 {
	const nodeBytes = 144 // 7 ints, 8 float64, 2 pointers, padding
	return int64(t.nodes)*nodeBytes + 64
}

// DerivedEntity marks the tree as a derived (re-computable) data entity:
// the DMS evicts derived entities before demand-loaded blocks.
func (t *BSPTree) DerivedEntity() {}

// ReleaseBlock drops the reference to the source block. Traversal
// (VisitFrontToBack, ActiveLeafCells) only reads the prebuilt node ranges,
// so a cached tree must not pin a whole evictable block in memory.
func (t *BSPTree) ReleaseBlock() { t.Block = nil }

func (t *BSPTree) build(lo, hi [3]int) *bspNode {
	t.nodes++
	n := &bspNode{lo: lo, hi: hi}
	n.bounds, n.smin, n.smax = t.rangeStats(lo, hi)
	cells := (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
	if cells <= LeafCells {
		return n
	}
	// Split the axis with the largest physical extent of the node bounds,
	// falling back to the largest index extent when degenerate.
	ext := n.bounds.Max.Sub(n.bounds.Min)
	axis := 0
	if ext.Y > ext.X && ext.Y >= ext.Z {
		axis = 1
	} else if ext.Z > ext.X && ext.Z > ext.Y {
		axis = 2
	}
	if hi[axis]-lo[axis] < 2 {
		axis = largestIndexAxis(lo, hi)
	}
	mid := (lo[axis] + hi[axis]) / 2
	lhi, rlo := hi, lo
	lhi[axis] = mid
	rlo[axis] = mid
	n.axis = axis
	n.left = t.build(lo, lhi)
	n.right = t.build(rlo, hi)
	return n
}

func largestIndexAxis(lo, hi [3]int) int {
	axis, best := 0, hi[0]-lo[0]
	if d := hi[1] - lo[1]; d > best {
		axis, best = 1, d
	}
	if d := hi[2] - lo[2]; d > best {
		axis = 2
	}
	return axis
}

// rangeStats computes the bounding box and scalar min/max over the node
// region of the grid (node range is cell range plus one on each axis).
func (t *BSPTree) rangeStats(lo, hi [3]int) (AABB, float64, float64) {
	b := t.Block
	f := b.Scalars[t.Field]
	box := EmptyAABB()
	smin, smax := 1e300, -1e300
	for k := lo[2]; k <= hi[2]; k++ {
		for j := lo[1]; j <= hi[1]; j++ {
			base := b.Index(lo[0], j, k)
			for i := lo[0]; i <= hi[0]; i++ {
				idx := base + (i - lo[0])
				box.Extend(mathx.Vec3{
					X: float64(b.Points[3*idx]),
					Y: float64(b.Points[3*idx+1]),
					Z: float64(b.Points[3*idx+2]),
				})
				v := float64(f[idx])
				if v < smin {
					smin = v
				}
				if v > smax {
					smax = v
				}
			}
		}
	}
	return box, smin, smax
}

// CellRange is a contiguous block of cells handed to the triangulator.
type CellRange struct {
	Lo, Hi [3]int // half-open cell index range
}

// Cells reports the number of cells in the range.
func (r CellRange) Cells() int {
	return (r.Hi[0] - r.Lo[0]) * (r.Hi[1] - r.Lo[1]) * (r.Hi[2] - r.Lo[2])
}

// VisitFrontToBack traverses leaves nearest-first from eye, pruning every
// subtree whose scalar range excludes iso, and calls fn for each surviving
// leaf. fn returning false stops the traversal early (used to cap streamed
// packets).
func (t *BSPTree) VisitFrontToBack(eye mathx.Vec3, iso float64, fn func(CellRange) bool) {
	t.visit(t.root, eye, iso, fn)
}

func (t *BSPTree) visit(n *bspNode, eye mathx.Vec3, iso float64, fn func(CellRange) bool) bool {
	if n == nil {
		return true
	}
	if iso < n.smin || iso > n.smax {
		return true // empty-region pruning
	}
	if n.left == nil {
		return fn(CellRange{Lo: n.lo, Hi: n.hi})
	}
	first, second := n.left, n.right
	if second.bounds.Center().Sub(eye).Norm() < first.bounds.Center().Sub(eye).Norm() {
		first, second = second, first
	}
	if !t.visit(first, eye, iso, fn) {
		return false
	}
	return t.visit(second, eye, iso, fn)
}

// ActiveLeafCells reports the total number of cells in leaves that survive
// iso pruning; the cost model uses it to charge traversal work.
func (t *BSPTree) ActiveLeafCells(iso float64) int {
	total := 0
	t.VisitFrontToBack(mathx.Vec3{}, iso, func(r CellRange) bool {
		total += r.Cells()
		return true
	})
	return total
}

package grid

// MinMaxBrick is the edge length, in cells, of one brick of a MinMaxIndex.
// 4³ cells per brick keeps the index ~1/500th of the field it summarizes
// while still skipping cells in useful runs.
const MinMaxBrick = 4

// MinMaxIndex is a compact per-(block, field) acceleration structure: the
// block's cell domain is tiled into MinMaxBrick³-cell bricks, and each brick
// records the minimum and maximum of the field over the nodes its cells
// touch. Because every corner value of every cell in a brick lies inside
// [Min, Max], a brick whose range excludes an iso value provably contains no
// active cell — the guided scan skips it without loading a single corner.
// The index is exact, never heuristic: it can only skip cells the full scan
// would have rejected too, so indexed extraction is bit-identical.
//
// The DMS caches MinMaxIndex values as derived data entities (one per block
// and field), so a user dragging an iso slider re-prices only the brick
// tests, not the index build.
type MinMaxIndex struct {
	Field      string
	BI, BJ, BK int // brick counts per axis

	// Min and Max hold one float32 each per brick, brick (bi,bj,bk) at
	// linear index bi + BI·(bj + BJ·bk).
	Min, Max []float32

	// LoVal and HiVal are the whole-block field range — the O(1) test that
	// lets commands skip loading blocks that cannot intersect the surface.
	LoVal, HiVal float32
}

// BuildMinMax constructs the index for the given field values laid out like
// a node-centred scalar of b (length b.NumNodes()). The field name is
// recorded for identification only; vals may be a stored scalar or a
// derived one (λ2).
func BuildMinMax(b *Block, field string, vals []float32) *MinMaxIndex {
	ci, cj, ck := b.NI-1, b.NJ-1, b.NK-1
	x := &MinMaxIndex{
		Field: field,
		BI:    (ci + MinMaxBrick - 1) / MinMaxBrick,
		BJ:    (cj + MinMaxBrick - 1) / MinMaxBrick,
		BK:    (ck + MinMaxBrick - 1) / MinMaxBrick,
	}
	n := x.BI * x.BJ * x.BK
	x.Min = make([]float32, n)
	x.Max = make([]float32, n)

	// A brick covering cells [lo,hi) spans nodes [lo,hi] inclusive: the +1
	// closes over the high corners shared with the next brick. Boundary
	// node planes are scanned by both adjacent bricks, which costs a few
	// percent of a single sweep and keeps the loop branch-free.
	bn := 0
	for bk := 0; bk < x.BK; bk++ {
		k0, k1 := bk*MinMaxBrick, min((bk+1)*MinMaxBrick, ck)
		for bj := 0; bj < x.BJ; bj++ {
			j0, j1 := bj*MinMaxBrick, min((bj+1)*MinMaxBrick, cj)
			for bi := 0; bi < x.BI; bi++ {
				i0, i1 := bi*MinMaxBrick, min((bi+1)*MinMaxBrick, ci)
				lo, hi := vals[b.Index(i0, j0, k0)], vals[b.Index(i0, j0, k0)]
				for k := k0; k <= k1; k++ {
					for j := j0; j <= j1; j++ {
						base := b.Index(i0, j, k)
						for i := i0; i <= i1; i++ {
							v := vals[base+(i-i0)]
							if v < lo {
								lo = v
							}
							if v > hi {
								hi = v
							}
						}
					}
				}
				x.Min[bn], x.Max[bn] = lo, hi
				bn++
			}
		}
	}
	x.LoVal, x.HiVal = x.Min[0], x.Max[0]
	for i := 1; i < n; i++ {
		if x.Min[i] < x.LoVal {
			x.LoVal = x.Min[i]
		}
		if x.Max[i] > x.HiVal {
			x.HiVal = x.Max[i]
		}
	}
	return x
}

// ScalarField wraps a node-centred scalar computed from a block (λ2) so the
// DMS can cache it as a derived data entity: a user re-querying the vortex
// threshold reuses the field instead of recomputing it per request.
type ScalarField struct {
	Name string
	Vals []float32
}

// SizeBytes reports the field payload for DMS cache accounting.
func (f *ScalarField) SizeBytes() int64 { return int64(len(f.Vals))*4 + 32 }

// DerivedEntity marks the field as derived (re-computable) data.
func (f *ScalarField) DerivedEntity() {}

// SizeBytes reports the in-memory payload of the index for DMS cache
// accounting: two float32 per brick plus the fixed header.
func (x *MinMaxIndex) SizeBytes() int64 {
	return int64(len(x.Min)+len(x.Max))*4 + 64
}

// DerivedEntity marks the index as a derived (re-computable) data entity:
// the DMS evicts derived entities before demand-loaded blocks.
func (x *MinMaxIndex) DerivedEntity() {}

// BlockExcludes reports that no cell of the whole block can straddle iso —
// the O(1) test that skips even loading the block. A cell is active iff some
// corner is < iso and some is ≥ iso, so the block is inactive when all
// values are ≥ iso (LoVal ≥ iso) or all are < iso (HiVal < iso). The
// comparisons mirror the kernel's float64(val) < iso test exactly.
func (x *MinMaxIndex) BlockExcludes(iso float64) bool {
	return !(float64(x.LoVal) < iso && float64(x.HiVal) >= iso)
}

// brickExcludes is BlockExcludes for one brick.
func (x *MinMaxIndex) brickExcludes(bi, bj, bk int, iso float64) bool {
	n := bi + x.BI*(bj+x.BJ*bk)
	return !(float64(x.Min[n]) < iso && float64(x.Max[n]) >= iso)
}

// SkipTo returns the first i-cell at or after ci (row cj,ck) that lies in a
// brick whose range straddles iso, clamped to hi. The guided scan calls it
// at brick boundaries to jump over runs of provably inactive cells; a
// result > ci means every cell in [ci, result) is inactive.
func (x *MinMaxIndex) SkipTo(ci, cj, ck int, iso float64, hi int) int {
	bj, bk := cj/MinMaxBrick, ck/MinMaxBrick
	for ci < hi {
		bi := ci / MinMaxBrick
		if !x.brickExcludes(bi, bj, bk, iso) {
			return ci
		}
		ci = (bi + 1) * MinMaxBrick
	}
	return hi
}

package grid

// MinMaxBrick is the edge length, in cells, of one brick of a MinMaxIndex.
// 4³ cells per brick keeps the index ~1/500th of the field it summarizes.
const MinMaxBrick = 4

// MinMaxIndex is a compact per-(block, field) summary: the block's cell
// domain is tiled into MinMaxBrick³-cell bricks, and each brick records the
// minimum and maximum of the field over the nodes its cells touch, so every
// corner value of every cell in a brick lies inside [Min, Max]. No command
// consults one: the bit-parallel scan classifies a block's cells as fast as
// the bricks skipped them. The end-to-end benchmark still times its build as
// a layer probe (grid.minmax_build_ms_per_step).
type MinMaxIndex struct {
	Field      string
	BI, BJ, BK int // brick counts per axis

	// Min and Max hold one float32 each per brick, brick (bi,bj,bk) at
	// linear index bi + BI·(bj + BJ·bk).
	Min, Max []float32

	// LoVal and HiVal are the whole-block field range.
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

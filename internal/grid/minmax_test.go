package grid

import (
	"math/rand"
	"testing"

	"viracocha/internal/mathx"
)

// noisyBlock builds a block whose scalar field is uncorrelated noise — the
// adversarial case for a min/max index, where brick ranges are wide and
// every skip must still be provably safe.
func noisyBlock(n int, seed int64) *Block {
	rng := rand.New(rand.NewSource(seed))
	b := NewBlock(BlockID{Dataset: "n", Step: 0, Block: 0}, n, n, n)
	s := b.EnsureScalar("s")
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				b.SetPoint(i, j, k, mathx.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
				s[b.Index(i, j, k)] = float32(rng.NormFloat64())
			}
		}
	}
	return b
}

// activeCell is the kernel's corner test, restated independently: a cell is
// active iff some corner value is < iso and some is ≥ iso.
func activeCell(b *Block, vals []float32, iso float64, ci, cj, ck int) bool {
	off := b.CellOffsets()
	i0 := b.Index(ci, cj, ck)
	below, above := false, false
	for n := 0; n < 8; n++ {
		if float64(vals[i0+off[n]]) < iso {
			below = true
		} else {
			above = true
		}
	}
	return below && above
}

func TestBuildMinMaxBrickBoundsBruteForce(t *testing.T) {
	for _, n := range []int{5, 9, 14} { // 14 exercises partial edge bricks
		b := noisyBlock(n, int64(n))
		vals := b.Scalars["s"]
		x := BuildMinMax(b, "s", vals)
		ci, cj, ck := b.NI-1, b.NJ-1, b.NK-1
		wantBI := (ci + MinMaxBrick - 1) / MinMaxBrick
		if x.BI != wantBI {
			t.Fatalf("n=%d: brick counts %d,%d,%d", n, x.BI, x.BJ, x.BK)
		}
		for bk := 0; bk < x.BK; bk++ {
			for bj := 0; bj < x.BJ; bj++ {
				for bi := 0; bi < x.BI; bi++ {
					// Brute-force min/max over the nodes the brick's cells
					// touch: cell range [lo, min(hi, cells)), node range
					// [lo, min(hi, cells)] inclusive.
					i0, i1 := bi*MinMaxBrick, min((bi+1)*MinMaxBrick, ci)
					j0, j1 := bj*MinMaxBrick, min((bj+1)*MinMaxBrick, cj)
					k0, k1 := bk*MinMaxBrick, min((bk+1)*MinMaxBrick, ck)
					lo, hi := vals[b.Index(i0, j0, k0)], vals[b.Index(i0, j0, k0)]
					for k := k0; k <= k1; k++ {
						for j := j0; j <= j1; j++ {
							for i := i0; i <= i1; i++ {
								v := vals[b.Index(i, j, k)]
								if v < lo {
									lo = v
								}
								if v > hi {
									hi = v
								}
							}
						}
					}
					bn := bi + x.BI*(bj+x.BJ*bk)
					if x.Min[bn] != lo || x.Max[bn] != hi {
						t.Fatalf("n=%d brick (%d,%d,%d): index [%v,%v], brute force [%v,%v]",
							n, bi, bj, bk, x.Min[bn], x.Max[bn], lo, hi)
					}
				}
			}
		}
		// Whole-block range is the union of the brick ranges.
		glo, ghi := x.Min[0], x.Max[0]
		for i := range x.Min {
			if x.Min[i] < glo {
				glo = x.Min[i]
			}
			if x.Max[i] > ghi {
				ghi = x.Max[i]
			}
		}
		if x.LoVal != glo || x.HiVal != ghi {
			t.Fatalf("n=%d: block range [%v,%v], bricks union [%v,%v]", n, x.LoVal, x.HiVal, glo, ghi)
		}
	}
}

func TestMinMaxBlockExcludes(t *testing.T) {
	b := noisyBlock(9, 3)
	x := BuildMinMax(b, "s", b.Scalars["s"])
	if !x.BlockExcludes(float64(x.LoVal) - 1) {
		t.Fatal("iso below the block range must be excluded")
	}
	if !x.BlockExcludes(float64(x.HiVal) + 1) {
		t.Fatal("iso above the block range must be excluded")
	}
	// iso == LoVal: no corner is < iso, so no cell can be active.
	if !x.BlockExcludes(float64(x.LoVal)) {
		t.Fatal("iso at the exact minimum has no below-corner anywhere")
	}
	// iso just above LoVal: the minimum node's corner is < iso and its cell
	// has a ≥ corner, so the block must not be excluded.
	if x.BlockExcludes(float64(x.LoVal) + 1e-6) {
		t.Fatal("iso inside the range wrongly excluded")
	}
	if x.BlockExcludes(float64(x.HiVal)) {
		t.Fatal("iso at the exact maximum still has below-corners")
	}
}

// TestSkipToNeverSkipsActiveCell is the safety proof of the guided scan: walk
// every row exactly like RangeIndexed does and verify by brute force that
// every skipped cell is inactive, and that visited+skipped covers every cell
// once.
func TestSkipToNeverSkipsActiveCell(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		b := noisyBlock(11, seed)
		vals := b.Scalars["s"]
		x := BuildMinMax(b, "s", vals)
		for _, iso := range []float64{-1.5, -0.3, 0, 0.02, 0.8, 2.5} {
			visited, skipped := 0, 0
			hi := b.NI - 1
			for ck := 0; ck < b.NK-1; ck++ {
				for cj := 0; cj < b.NJ-1; cj++ {
					for ci := 0; ci < hi; {
						if next := x.SkipTo(ci, cj, ck, iso, hi); next > ci {
							if next > hi {
								t.Fatalf("SkipTo overshot: %d > %d", next, hi)
							}
							for c := ci; c < next; c++ {
								if activeCell(b, vals, iso, c, cj, ck) {
									t.Fatalf("seed %d iso %v: skipped active cell (%d,%d,%d)",
										seed, iso, c, cj, ck)
								}
							}
							skipped += next - ci
							ci = next
							continue
						}
						visited++
						ci++
					}
				}
			}
			if visited+skipped != b.NumCells() {
				t.Fatalf("seed %d iso %v: visited %d + skipped %d ≠ %d cells",
					seed, iso, visited, skipped, b.NumCells())
			}
			// The index must actually earn its keep on out-of-range isos.
			if x.BlockExcludes(iso) && visited != 0 {
				t.Fatalf("iso %v outside block range still visited %d cells", iso, visited)
			}
		}
	}
}

func TestSkipToClampsToHi(t *testing.T) {
	b := noisyBlock(6, 9) // 5 cells per axis: one full brick + a partial one
	vals := b.Scalars["s"]
	x := BuildMinMax(b, "s", vals)
	iso := float64(x.HiVal) + 10 // excludes everything
	if got := x.SkipTo(0, 0, 0, iso, b.NI-1); got != b.NI-1 {
		t.Fatalf("SkipTo over an all-excluded row = %d, want clamp to %d", got, b.NI-1)
	}
	if got := x.SkipTo(3, 1, 1, iso, 4); got != 4 {
		t.Fatalf("SkipTo from mid-brick = %d, want 4", got)
	}
}

func TestMinMaxSizeBytesAndDerivedMarkers(t *testing.T) {
	b := noisyBlock(9, 5)
	x := BuildMinMax(b, "s", b.Scalars["s"])
	if want := int64(len(x.Min)+len(x.Max))*4 + 64; x.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", x.SizeBytes(), want)
	}
	// The index must be tiny relative to the field it summarizes.
	if x.SizeBytes() > int64(len(b.Scalars["s"]))*4 {
		t.Fatalf("index (%d B) not smaller than its field", x.SizeBytes())
	}
	type derived interface{ DerivedEntity() }
	for _, e := range []any{x, &ScalarField{Vals: make([]float32, 8)}, BuildBSP(b, "s")} {
		if _, ok := e.(derived); !ok {
			t.Fatalf("%T is not marked as a derived entity", e)
		}
	}
	f := &ScalarField{Vals: make([]float32, 100)}
	if f.SizeBytes() < 400 {
		t.Fatalf("ScalarField.SizeBytes = %d, want ≥ payload", f.SizeBytes())
	}
}

// TestBSPReleaseBlockKeepsTraversal checks that a BSP tree cached as a
// derived entity does not pin its source block: after ReleaseBlock the
// prebuilt node ranges still drive pruning and front-to-back traversal.
func TestBSPReleaseBlockKeepsTraversal(t *testing.T) {
	b := wedgeBlock(13)
	tree := BuildBSP(b, "pressure")
	if tree.SizeBytes() <= 0 {
		t.Fatal("BSP SizeBytes must be positive")
	}
	eye := mathx.Vec3{X: 2}
	var before []CellRange
	tree.VisitFrontToBack(eye, 0.5, func(r CellRange) bool {
		before = append(before, r)
		return true
	})
	active := tree.ActiveLeafCells(0.5)
	tree.ReleaseBlock()
	if tree.Block != nil {
		t.Fatal("ReleaseBlock kept the block pointer")
	}
	var after []CellRange
	tree.VisitFrontToBack(eye, 0.5, func(r CellRange) bool {
		after = append(after, r)
		return true
	})
	if len(after) != len(before) {
		t.Fatalf("traversal changed after ReleaseBlock: %d vs %d leaves", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("leaf %d differs after ReleaseBlock", i)
		}
	}
	if tree.ActiveLeafCells(0.5) != active {
		t.Fatal("pruning changed after ReleaseBlock")
	}
}

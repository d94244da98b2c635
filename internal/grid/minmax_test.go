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

// TestMinMaxSizeBytesAndDerivedMarkers: the BSP tree, the one grid entity
// the DMS caches, is marked derived so the cache evicts it before demand
// blocks.
func TestMinMaxSizeBytesAndDerivedMarkers(t *testing.T) {
	b := noisyBlock(9, 5)
	if _, ok := any(BuildBSP(b, "s")).(interface{ DerivedEntity() }); !ok {
		t.Fatal("BSPTree is not marked as a derived entity")
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

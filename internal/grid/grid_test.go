package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viracocha/internal/mathx"
)

// uniformBlock builds an axis-aligned block spanning [org, org+size] with a
// linear scalar field and a rigid-rotation velocity field about the z axis.
func uniformBlock(id BlockID, ni, nj, nk int, org, size mathx.Vec3) *Block {
	b := NewBlock(id, ni, nj, nk)
	p := b.EnsureScalar("pressure")
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			for i := 0; i < ni; i++ {
				pt := mathx.Vec3{
					X: org.X + size.X*float64(i)/float64(ni-1),
					Y: org.Y + size.Y*float64(j)/float64(nj-1),
					Z: org.Z + size.Z*float64(k)/float64(nk-1),
				}
				b.SetPoint(i, j, k, pt)
				b.SetVel(i, j, k, mathx.Vec3{X: -pt.Y, Y: pt.X, Z: 0}) // rigid rotation, ω=1
				p[b.Index(i, j, k)] = float32(pt.X + 2*pt.Y + 3*pt.Z)
			}
		}
	}
	return b
}

// twistedBlock builds a genuinely curvilinear block: a box warped by a
// z-dependent rotation, so trilinear inversion is non-trivial.
func twistedBlock(id BlockID, n int) *Block {
	b := NewBlock(id, n, n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := float64(i)/float64(n-1) - 0.5
				y := float64(j)/float64(n-1) - 0.5
				z := float64(k) / float64(n-1)
				ang := 0.6 * z
				c, s := math.Cos(ang), math.Sin(ang)
				b.SetPoint(i, j, k, mathx.Vec3{X: c*x - s*y, Y: s*x + c*y, Z: z})
				b.SetVel(i, j, k, mathx.Vec3{X: 1, Y: 0, Z: 0})
			}
		}
	}
	return b
}

func TestBlockIndexingRoundTrip(t *testing.T) {
	b := NewBlock(BlockID{"d", 0, 0}, 4, 5, 6)
	seen := map[int]bool{}
	for k := 0; k < 6; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 4; i++ {
				idx := b.Index(i, j, k)
				if idx < 0 || idx >= b.NumNodes() {
					t.Fatalf("index out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d for (%d,%d,%d)", idx, i, j, k)
				}
				seen[idx] = true
			}
		}
	}
	if b.NumNodes() != 120 || b.NumCells() != 60 {
		t.Fatalf("NumNodes=%d NumCells=%d", b.NumNodes(), b.NumCells())
	}
}

func TestBlockIDString(t *testing.T) {
	id := BlockID{Dataset: "engine", Step: 7, Block: 12}
	if got := id.String(); got != "engine/t007/b012" {
		t.Fatalf("String = %q", got)
	}
}

func TestPointVelScalarAccessors(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 3, 3, 3, mathx.Vec3{}, mathx.Vec3{X: 2, Y: 2, Z: 2})
	p := b.Point(2, 2, 2)
	if p != (mathx.Vec3{X: 2, Y: 2, Z: 2}) {
		t.Fatalf("Point = %v", p)
	}
	v := b.Vel(2, 0, 0)
	if !mathx.AlmostEqual(v.Y, 2, 1e-6) || !mathx.AlmostEqual(v.X, 0, 1e-6) {
		t.Fatalf("Vel = %v", v)
	}
}

func TestSizeBytes(t *testing.T) {
	b := NewBlock(BlockID{"d", 0, 0}, 2, 2, 2)
	b.EnsureScalar("p")
	// 8 nodes: points 24 floats, velocity 24 floats, scalar 8 floats.
	if got := b.SizeBytes(); got != int64(24+24+8)*4 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestBoundsAndAABB(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 3, 3, 3, mathx.Vec3{X: 1, Y: 2, Z: 3}, mathx.Vec3{X: 2, Y: 2, Z: 2})
	box := b.Bounds()
	if !mathx.AlmostEqual(box.Min.X, 1, 1e-6) || !mathx.AlmostEqual(box.Max.Z, 5, 1e-6) {
		t.Fatalf("Bounds = %+v", box)
	}
	if !box.Contains(mathx.Vec3{X: 2, Y: 3, Z: 4}, 0) {
		t.Fatal("Contains center failed")
	}
	if box.Contains(mathx.Vec3{X: 0, Y: 0, Z: 0}, 0) {
		t.Fatal("Contains outside point")
	}
	c := box.Center()
	if !mathx.AlmostEqual(c.X, 2, 1e-6) || !mathx.AlmostEqual(c.Y, 3, 1e-6) {
		t.Fatalf("Center = %v", c)
	}
	if box.Diagonal() <= 0 {
		t.Fatal("Diagonal must be positive")
	}
}

func TestTrilinearWeightsPartitionOfUnity(t *testing.T) {
	f := func(r, s, u float64) bool {
		r, s, u = frac(r), frac(s), frac(u)
		w := trilinearWeights(r, s, u)
		sum := 0.0
		for _, x := range w {
			if x < -1e-12 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func frac(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(x, 1))
}

func TestNaturalCoordsInvertsInterp(t *testing.T) {
	b := twistedBlock(BlockID{"d", 0, 0}, 6)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		ci, cj, ck := rng.Intn(5), rng.Intn(5), rng.Intn(5)
		r0, s0, t0 := rng.Float64(), rng.Float64(), rng.Float64()
		p := b.InterpPoint(ci, cj, ck, r0, s0, t0)
		r, s, u, ok := b.NaturalCoords(ci, cj, ck, p)
		if !ok {
			t.Fatalf("NaturalCoords failed for interior point (cell %d,%d,%d)", ci, cj, ck)
		}
		if !mathx.AlmostEqual(r, r0, 1e-4) || !mathx.AlmostEqual(s, s0, 1e-4) || !mathx.AlmostEqual(u, t0, 1e-4) {
			t.Fatalf("NaturalCoords = (%v,%v,%v), want (%v,%v,%v)", r, s, u, r0, s0, t0)
		}
	}
}

func TestLocateOnTwistedBlock(t *testing.T) {
	b := twistedBlock(BlockID{"d", 0, 0}, 8)
	rng := rand.New(rand.NewSource(3))
	var hint *CellLoc
	for trial := 0; trial < 100; trial++ {
		ci, cj, ck := rng.Intn(7), rng.Intn(7), rng.Intn(7)
		p := b.InterpPoint(ci, cj, ck, rng.Float64(), rng.Float64(), rng.Float64())
		loc, ok := b.Locate(p, hint)
		if !ok {
			t.Fatalf("Locate failed for interior point %v", p)
		}
		// Verify the found cell maps back to p.
		got := b.InterpPoint(loc.CI, loc.CJ, loc.CK, loc.R, loc.S, loc.T)
		if got.Sub(p).Norm() > 1e-4 {
			t.Fatalf("Locate residual %v too large", got.Sub(p).Norm())
		}
		hint = &loc
	}
}

func TestLocateOutsideFails(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 4, 4, 4, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	if _, ok := b.Locate(mathx.Vec3{X: 10, Y: 10, Z: 10}, nil); ok {
		t.Fatal("Locate claimed to find a point far outside the block")
	}
}

func TestVelocityAtRigidRotation(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 8, 8, 8, mathx.Vec3{X: -1, Y: -1, Z: -1}, mathx.Vec3{X: 2, Y: 2, Z: 2})
	p := mathx.Vec3{X: 0.3, Y: -0.4, Z: 0.1}
	v, ok := b.VelocityAt(p, nil)
	if !ok {
		t.Fatal("VelocityAt failed")
	}
	want := mathx.Vec3{X: 0.4, Y: 0.3, Z: 0}
	if v.Sub(want).Norm() > 1e-5 {
		t.Fatalf("VelocityAt = %v, want %v", v, want)
	}
}

func TestMultiBlockLocateAcrossBlocks(t *testing.T) {
	// Two abutting unit blocks along x.
	b0 := uniformBlock(BlockID{"d", 0, 0}, 5, 5, 5, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	b1 := uniformBlock(BlockID{"d", 0, 1}, 5, 5, 5, mathx.Vec3{X: 1}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	m := NewMultiBlock("d", 0, []*Block{b0, b1})
	bi, _, ok := m.Locate(mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, -1, nil)
	if !ok || bi != 0 {
		t.Fatalf("Locate block = %d,%v, want 0,true", bi, ok)
	}
	bi, _, ok = m.Locate(mathx.Vec3{X: 1.5, Y: 0.5, Z: 0.5}, 0, nil)
	if !ok || bi != 1 {
		t.Fatalf("Locate block = %d,%v, want 1,true", bi, ok)
	}
	if _, _, ok = m.Locate(mathx.Vec3{X: 5, Y: 5, Z: 5}, -1, nil); ok {
		t.Fatal("Locate outside domain should fail")
	}
}

func TestMultiBlockVelocityAtUsesHint(t *testing.T) {
	b0 := uniformBlock(BlockID{"d", 0, 0}, 5, 5, 5, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	b1 := uniformBlock(BlockID{"d", 0, 1}, 5, 5, 5, mathx.Vec3{X: 1}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	m := NewMultiBlock("d", 0, []*Block{b0, b1})
	var loc CellLoc
	v, bi, ok := m.VelocityAt(mathx.Vec3{X: 1.2, Y: 0.5, Z: 0.5}, -1, &loc)
	if !ok || bi != 1 {
		t.Fatalf("VelocityAt = bi=%d ok=%v", bi, ok)
	}
	want := mathx.Vec3{X: -0.5, Y: 1.2, Z: 0}
	if v.Sub(want).Norm() > 1e-5 {
		t.Fatalf("v = %v, want %v", v, want)
	}
	// Second query nearby must succeed via the hint fast path.
	_, bi2, ok := m.VelocityAt(mathx.Vec3{X: 1.25, Y: 0.5, Z: 0.5}, bi, &loc)
	if !ok || bi2 != 1 {
		t.Fatal("hinted relocate failed")
	}
}

func TestCoarsenPreservesExtent(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 9, 9, 9, mathx.Vec3{X: 1}, mathx.Vec3{X: 4, Y: 4, Z: 4})
	c := b.Coarsen(1)
	if c.NI != 5 || c.NJ != 5 || c.NK != 5 {
		t.Fatalf("coarsened dims = %d,%d,%d", c.NI, c.NJ, c.NK)
	}
	cb, bb := c.Bounds(), b.Bounds()
	if cb.Min.Sub(bb.Min).Norm() > 1e-6 || cb.Max.Sub(bb.Max).Norm() > 1e-6 {
		t.Fatal("coarsening changed the physical extent")
	}
	if !c.HasScalar("pressure") {
		t.Fatal("coarsening dropped scalar fields")
	}
	// Level 0 returns the identical block.
	if b.Coarsen(0) != b {
		t.Fatal("Coarsen(0) must return the receiver")
	}
}

func TestCoarsenOddDims(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 6, 7, 8, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	c := b.Coarsen(2)
	if c.NI < 2 || c.NJ < 2 || c.NK < 2 {
		t.Fatalf("over-coarsened dims = %d,%d,%d", c.NI, c.NJ, c.NK)
	}
	last := c.Point(c.NI-1, c.NJ-1, c.NK-1)
	want := b.Point(5, 6, 7)
	if last.Sub(want).Norm() > 1e-6 {
		t.Fatal("final node not preserved")
	}
}

func TestMaxLevel(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 17, 17, 17, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	lvl := b.MaxLevel()
	if lvl < 2 {
		t.Fatalf("MaxLevel = %d, want ≥ 2 for 17³", lvl)
	}
	c := b.Coarsen(lvl)
	if c.NumCells() < 1 {
		t.Fatal("coarsening to MaxLevel produced no cells")
	}
}

func TestVelocityGradientRigidRotation(t *testing.T) {
	// u = (-y, x, 0): gradient is [[0,-1,0],[1,0,0],[0,0,0]] everywhere.
	b := uniformBlock(BlockID{"d", 0, 0}, 7, 7, 7, mathx.Vec3{X: -1, Y: -1, Z: -1}, mathx.Vec3{X: 2, Y: 2, Z: 2})
	for _, node := range [][3]int{{3, 3, 3}, {0, 0, 0}, {6, 6, 6}, {0, 3, 6}} {
		j, ok := b.VelocityGradient(node[0], node[1], node[2])
		if !ok {
			t.Fatalf("gradient singular at %v", node)
		}
		want := mathx.Mat3{{0, -1, 0}, {1, 0, 0}, {0, 0, 0}}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if !mathx.AlmostEqual(j[r][c], want[r][c], 1e-4) {
					t.Fatalf("gradient[%d][%d] = %v, want %v (node %v)", r, c, j[r][c], want[r][c], node)
				}
			}
		}
	}
}

func TestVelocityGradientOnCurvilinear(t *testing.T) {
	// On the twisted block the velocity is constant, so the physical
	// gradient must vanish despite the curvilinear geometry.
	b := twistedBlock(BlockID{"d", 0, 0}, 9)
	j, ok := b.VelocityGradient(4, 4, 4)
	if !ok {
		t.Fatal("gradient singular")
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if math.Abs(j[r][c]) > 1e-4 {
				t.Fatalf("gradient of constant field nonzero: %v", j)
			}
		}
	}
}

func TestBSPCoversAllCellsExactlyOnce(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 9, 7, 5, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	tree := BuildBSP(b, "pressure")
	covered := map[[3]int]int{}
	// iso chosen inside the global range so nothing is pruned.
	tree.VisitFrontToBack(mathx.Vec3{X: -5}, 3.0, func(r CellRange) bool {
		for k := r.Lo[2]; k < r.Hi[2]; k++ {
			for j := r.Lo[1]; j < r.Hi[1]; j++ {
				for i := r.Lo[0]; i < r.Hi[0]; i++ {
					covered[[3]int{i, j, k}]++
				}
			}
		}
		return true
	})
	if len(covered) != b.NumCells() {
		t.Fatalf("covered %d cells, want %d", len(covered), b.NumCells())
	}
	for c, n := range covered {
		if n != 1 {
			t.Fatalf("cell %v visited %d times", c, n)
		}
	}
}

func TestBSPPrunesEmptyRegions(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 17, 17, 17, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	tree := BuildBSP(b, "pressure")
	// pressure = x+2y+3z spans [0,6]; iso far outside prunes everything.
	if got := tree.ActiveLeafCells(100); got != 0 {
		t.Fatalf("ActiveLeafCells(100) = %d, want 0", got)
	}
	all := tree.ActiveLeafCells(3)
	some := tree.ActiveLeafCells(0.05) // near a corner: most leaves pruned
	if some == 0 || some >= all {
		t.Fatalf("pruning ineffective: some=%d all=%d", some, all)
	}
}

func TestBSPFrontToBackLeafOrder(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 33, 5, 5, mathx.Vec3{}, mathx.Vec3{X: 8, Y: 1, Z: 1})
	tree := BuildBSP(b, "pressure")
	eye := mathx.Vec3{X: -100, Y: 0.5, Z: 0.5}
	var centers []float64
	tree.VisitFrontToBack(eye, 3, func(r CellRange) bool {
		centers = append(centers, float64(r.Lo[0]+r.Hi[0])/2)
		return true
	})
	for i := 1; i < len(centers); i++ {
		if centers[i] < centers[i-1] {
			t.Fatalf("leaves not front-to-back along x: %v", centers)
		}
	}
}

func TestBSPEarlyStop(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 33, 33, 5, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	tree := BuildBSP(b, "pressure")
	visits := 0
	tree.VisitFrontToBack(mathx.Vec3{}, 3, func(CellRange) bool {
		visits++
		return visits < 2
	})
	if visits != 2 {
		t.Fatalf("early stop visited %d leaves, want 2", visits)
	}
}

func TestCellCornersOrientation(t *testing.T) {
	b := uniformBlock(BlockID{"d", 0, 0}, 3, 3, 3, mathx.Vec3{}, mathx.Vec3{X: 2, Y: 2, Z: 2})
	c := b.CellCorners(0, 0, 0)
	// Corner 0 at origin, corner 6 at the opposite cell corner.
	p0 := mathx.Vec3{X: float64(b.Points[3*c[0]]), Y: float64(b.Points[3*c[0]+1]), Z: float64(b.Points[3*c[0]+2])}
	p6 := mathx.Vec3{X: float64(b.Points[3*c[6]]), Y: float64(b.Points[3*c[6]+1]), Z: float64(b.Points[3*c[6]+2])}
	if p0.Norm() > 1e-9 {
		t.Fatalf("corner0 = %v, want origin", p0)
	}
	want := mathx.Vec3{X: 1, Y: 1, Z: 1}
	if p6.Sub(want).Norm() > 1e-6 {
		t.Fatalf("corner6 = %v, want %v", p6, want)
	}
}

func TestNewBlockPanicsOnDegenerateDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlock(BlockID{"d", 0, 0}, 1, 2, 2)
}

func wedgeBlock(n int) *Block {
	// A genuinely curvilinear annular wedge (like the engine data set).
	b := NewBlock(BlockID{"w", 0, 0}, n, n, n)
	p := b.EnsureScalar("pressure")
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				r := 0.2 + 0.8*float64(i)/float64(n-1)
				th := 0.9 * float64(j) / float64(n-1)
				z := float64(k) / float64(n-1)
				pt := mathx.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th), Z: z}
				b.SetPoint(i, j, k, pt)
				b.SetVel(i, j, k, mathx.Vec3{X: -pt.Y, Y: pt.X})
				p[b.Index(i, j, k)] = float32(r)
			}
		}
	}
	return b
}

func TestBSPOnCurvilinearWedge(t *testing.T) {
	b := wedgeBlock(13)
	// Coverage: with a constant field nothing can be pruned, so the
	// curvilinear-geometry splits must still tile every cell exactly once.
	flat := b.EnsureScalar("flat")
	for i := range flat {
		flat[i] = 1
	}
	cover := BuildBSP(b, "flat")
	count := 0
	cover.VisitFrontToBack(mathx.Vec3{X: 2}, 1, func(r CellRange) bool {
		count += r.Cells()
		return true
	})
	if count != b.NumCells() {
		t.Fatalf("covered %d cells, want %d", count, b.NumCells())
	}
	// Pruning: the pressure field is the radius ∈ [0.2,1]; iso at 0.21
	// lives near the inner shell only.
	tree := BuildBSP(b, "pressure")
	inner := tree.ActiveLeafCells(0.21)
	if inner == 0 || inner >= b.NumCells() {
		t.Fatalf("inner-shell pruning ineffective: %d of %d", inner, b.NumCells())
	}
}

func TestLocateOnWedgeWithHints(t *testing.T) {
	b := wedgeBlock(11)
	var hint *CellLoc
	// Walk a particle-like query path along the swirl.
	p := mathx.Vec3{X: 0.6, Y: 0.05, Z: 0.5}
	for step := 0; step < 50; step++ {
		loc, ok := b.Locate(p, hint)
		if !ok {
			t.Fatalf("lost the point at step %d: %v", step, p)
		}
		hint = &loc
		v := b.InterpVelocity(loc.CI, loc.CJ, loc.CK, loc.R, loc.S, loc.T)
		p = p.Add(v.Scale(0.01))
	}
}

func TestNaturalCoordsReportsOutside(t *testing.T) {
	b := wedgeBlock(7)
	// A point well outside cell (0,0,0).
	far := b.Point(5, 5, 5)
	_, _, _, ok := b.NaturalCoords(0, 0, 0, far)
	if ok {
		t.Fatal("NaturalCoords claimed containment for a distant point")
	}
}

func TestMinJacobianDetDetectsFoldedCells(t *testing.T) {
	good := uniformBlock(BlockID{"d", 0, 0}, 4, 4, 4, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	if d := good.MinJacobianDet(); d <= 0 {
		t.Fatalf("well-shaped block has MinJacobianDet %v", d)
	}
	// Fold the block by swapping two node planes.
	bad := uniformBlock(BlockID{"d", 0, 1}, 4, 4, 4, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			p1 := bad.Point(1, j, k)
			p2 := bad.Point(2, j, k)
			bad.SetPoint(1, j, k, p2)
			bad.SetPoint(2, j, k, p1)
		}
	}
	if d := bad.MinJacobianDet(); d >= 0 {
		t.Fatalf("folded block not detected: MinJacobianDet %v", d)
	}
}

func TestCellOffsetsMatchCellCorners(t *testing.T) {
	b := NewBlock(BlockID{Dataset: "t"}, 5, 7, 3)
	off := b.CellOffsets()
	for _, c := range [][3]int{{0, 0, 0}, {3, 5, 1}, {1, 2, 0}} {
		corners := b.CellCorners(c[0], c[1], c[2])
		base := b.Index(c[0], c[1], c[2])
		for n := 0; n < 8; n++ {
			if base+off[n] != corners[n] {
				t.Fatalf("cell %v corner %d: offset path %d, CellCorners %d",
					c, n, base+off[n], corners[n])
			}
		}
	}
}

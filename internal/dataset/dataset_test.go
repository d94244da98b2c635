package dataset

import (
	"math"
	"testing"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
)

func TestTable1Structure(t *testing.T) {
	// The inventory must match the paper's Table 1.
	e := Engine()
	if e.Steps != 63 || e.Blocks != 23 {
		t.Fatalf("engine structure = %d steps × %d blocks, want 63×23", e.Steps, e.Blocks)
	}
	p := Propfan()
	if p.Steps != 50 || p.Blocks != 144 {
		t.Fatalf("propfan structure = %d steps × %d blocks, want 50×144", p.Steps, p.Blocks)
	}
	if e.PaperBlockBytes <= 0 || p.PaperBlockBytes <= e.PaperBlockBytes {
		t.Fatalf("paper byte sizes implausible: engine=%d propfan=%d", e.PaperBlockBytes, p.PaperBlockBytes)
	}
}

func TestCatalogAndByName(t *testing.T) {
	c := Catalog()
	for _, name := range []string{"engine", "propfan", "tiny"} {
		if c[name] == nil {
			t.Fatalf("catalog missing %q", name)
		}
		d, err := ByName(name)
		if err != nil || d.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName should fail for unknown data set")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := Engine()
	a := d.Generate(5, 7)
	b := d.Generate(5, 7)
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("nondeterministic node count")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("nondeterministic coordinates")
		}
	}
	for i := range a.Velocity {
		if a.Velocity[i] != b.Velocity[i] {
			t.Fatal("nondeterministic velocity")
		}
	}
}

func TestGenerateOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Engine().Generate(63, 0)
}

func TestEngineBlocksTileTheCylinder(t *testing.T) {
	d := Engine()
	mb := d.GenerateStep(0)
	if len(mb.Blocks) != 23 {
		t.Fatalf("blocks = %d", len(mb.Blocks))
	}
	box := grid.EmptyAABB()
	for _, b := range mb.Blocks {
		box = box.Union(b.Bounds())
	}
	// Bore radius 0.05: x/y extents ≈ [-0.05, 0.05], z ∈ [0, 0.1].
	if !mathx.AlmostEqual(box.Max.X, 0.05, 0.02) || !mathx.AlmostEqual(box.Max.Z, 0.1, 1e-6) {
		t.Fatalf("engine bounds = %+v", box)
	}
	// Every block must carry the pressure field and finite values.
	for _, b := range mb.Blocks {
		if !b.HasScalar("pressure") {
			t.Fatal("pressure field missing")
		}
		for _, v := range b.Scalars["pressure"] {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatal("non-finite pressure")
			}
		}
	}
}

func TestEngineFlowIsUnsteady(t *testing.T) {
	d := Engine()
	b0 := d.Generate(0, 3)
	b1 := d.Generate(31, 3)
	diff := 0.0
	for i := range b0.Velocity {
		diff += math.Abs(float64(b0.Velocity[i] - b1.Velocity[i]))
	}
	if diff == 0 {
		t.Fatal("flow identical across time steps: not unsteady")
	}
}

func TestPropfanBlockCoords(t *testing.T) {
	seen := map[[3]int]bool{}
	for b := 0; b < 144; b++ {
		s, st, sh := PropfanBlockCoords(b)
		if s < 0 || s >= 12 || st < 0 || st >= 3 || sh < 0 || sh >= 4 {
			t.Fatalf("coords out of range for block %d: %d,%d,%d", b, s, st, sh)
		}
		key := [3]int{s, st, sh}
		if seen[key] {
			t.Fatalf("duplicate coords %v", key)
		}
		seen[key] = true
	}
}

func TestPropfanCounterRotation(t *testing.T) {
	// Swirl direction behind rotor 1 (z≈1.5) must oppose swirl behind
	// rotor 2 (z≈2.9) at the same radius/angle.
	v1, _ := propfanFlow(mathx.Vec3{X: 0.6, Y: 0, Z: 1.5}, 0.6, 0, 1.5, 0)
	v2, _ := propfanFlow(mathx.Vec3{X: 0.6, Y: 0, Z: 2.9}, 0.6, 0, 2.9, 0)
	if v1.Y == 0 || v2.Y == 0 {
		t.Fatalf("no swirl: v1=%v v2=%v", v1, v2)
	}
	if v1.Y*v2.Y >= 0 {
		t.Fatalf("stages rotate the same way: v1.y=%v v2.y=%v", v1.Y, v2.Y)
	}
}

func TestPropfanHasVortexCores(t *testing.T) {
	// λ2 at a tip-vortex core must be negative (vortex), and positive-ish
	// far from any core. Probe the analytic field via a generated block.
	d := Propfan().WithScale(2)
	// Core at phi=0 ring 1 (z=1): sector 0, stage 1, shell for r=0.85 is
	// shell 3 ([0.825,1.0]).
	blockIdx := 0 + pfSectors*1 + pfSectors*pfStages*3
	b := d.Generate(0, blockIdx)
	found := false
	for k := 0; k < b.NK && !found; k++ {
		for j := 0; j < b.NJ && !found; j++ {
			for i := 1; i < b.NI-1 && !found; i++ {
				jac, ok := b.VelocityGradient(i, j, k)
				if !ok {
					continue
				}
				if mathx.Lambda2(jac) < -1000 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no strongly negative λ2 anywhere near the tip-vortex ring")
	}
}

func TestWithScaleGrowsResolution(t *testing.T) {
	small := Tiny().Generate(0, 0)
	big := Tiny().WithScale(2).Generate(0, 0)
	if big.NumNodes() <= small.NumNodes() {
		t.Fatalf("scale 2 nodes %d not larger than scale 1 nodes %d", big.NumNodes(), small.NumNodes())
	}
	if Tiny().WithScale(0).Scale != 1 {
		t.Fatal("WithScale must clamp to 1")
	}
}

func TestTinyBlocksAbutAlongX(t *testing.T) {
	d := Tiny()
	mb := d.GenerateStep(0)
	for i, b := range mb.Blocks {
		box := b.Bounds()
		if !mathx.AlmostEqual(box.Min.X, float64(i), 1e-6) {
			t.Fatalf("block %d min.x = %v", i, box.Min.X)
		}
	}
}

func TestBlockIDsAreConsistent(t *testing.T) {
	d := Propfan()
	b := d.Generate(3, 17)
	if b.ID.Dataset != "propfan" || b.ID.Step != 3 || b.ID.Block != 17 {
		t.Fatalf("ID = %+v", b.ID)
	}
}

func TestEngineMovingGeometryChangesPerStep(t *testing.T) {
	d := EngineMoving()
	if d.Steps != 63 || d.Blocks != 23 {
		t.Fatalf("structure = %d×%d", d.Steps, d.Blocks)
	}
	top := func(step int) float64 { return d.Bounds(step, 0).Max.Z }
	// Piston at TDC (t=0) gives the full height; mid-cycle compresses.
	if !(top(0) > top(31)) {
		t.Fatalf("cylinder not compressed mid-cycle: %v vs %v", top(0), top(31))
	}
	// Bounds metadata must match the generated grid per step.
	for _, step := range []int{0, 15, 31} {
		b := d.Generate(step, 0)
		gridTop := b.Bounds().Max.Z
		if !mathx.AlmostEqual(gridTop, top(step), 1e-6) {
			t.Fatalf("step %d: bounds %v, grid %v", step, top(step), gridTop)
		}
	}
}

func TestEngineMovingPistonVelocity(t *testing.T) {
	d := EngineMoving()
	// During compression (0 < t < 0.5) dh/dt < 0: nodes near the piston
	// face (k = top) must carry extra downward axial velocity relative to
	// the static engine at the same location.
	step := 15 // t ≈ 0.24, strong piston motion
	moving := d.Generate(step, 0)
	if pistonSpeed(float64(step)/63) >= 0 {
		t.Fatal("test premise wrong: piston should be moving down")
	}
	topW := moving.Vel(4, 2, moving.NK-1).Z
	bottomW := moving.Vel(4, 2, 0).Z
	// The piston term scales with z/h: top nodes see it fully, bottom none.
	if !(topW < bottomW) {
		t.Fatalf("no piston-driven gradient: top %v, bottom %v", topW, bottomW)
	}
}

func TestEngineMovingPathlines(t *testing.T) {
	// Particles must be traceable through the deforming grid.
	d := EngineMoving()
	got := d.Generate(0, 3)
	if got.NumNodes() == 0 {
		t.Fatal("empty block")
	}
}

func TestAllDatasetsHaveWellShapedCells(t *testing.T) {
	// Every generator must produce unfolded cells (positive geometric
	// Jacobian) — otherwise interpolation, tracing and λ2 are garbage.
	for name, d := range Catalog() {
		steps := []int{0, d.Steps / 2, d.Steps - 1}
		for _, s := range steps {
			for _, b := range []int{0, d.Blocks / 2, d.Blocks - 1} {
				blk := d.Generate(s, b)
				if det := blk.MinJacobianDet(); det <= 0 {
					t.Fatalf("%s step %d block %d: MinJacobianDet = %v", name, s, b, det)
				}
			}
		}
	}
}

package tracer

import (
	"math"
	"testing"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/mathx"
)

// descProvider backs a tracer directly with generated blocks.
type descProvider struct {
	d      *dataset.Desc
	loads  int
	trace  [][2]int
	blocks map[[2]int]*grid.Block
}

func newDescProvider(d *dataset.Desc) *descProvider {
	return &descProvider{d: d, blocks: map[[2]int]*grid.Block{}}
}

func (p *descProvider) NumBlocks() int { return p.d.Blocks }
func (p *descProvider) NumSteps() int  { return p.d.Steps }
func (p *descProvider) Bounds(step, block int) grid.AABB {
	return p.d.Bounds(step, block)
}
func (p *descProvider) Block(step, block int) (*grid.Block, error) {
	key := [2]int{step, block}
	if b, ok := p.blocks[key]; ok {
		return b, nil
	}
	p.loads++
	p.trace = append(p.trace, key)
	b := p.d.Generate(step, block)
	p.blocks[key] = b
	return b, nil
}

// rotationProvider is a single-block steady rigid rotation about the z axis
// with angular velocity 1: trajectories are exact circles.
type rotationProvider struct{ b *grid.Block }

func newRotationProvider() *rotationProvider {
	b := grid.NewBlock(grid.BlockID{Dataset: "rot", Step: 0, Block: 0}, 17, 17, 3)
	for k := 0; k < 3; k++ {
		for j := 0; j < 17; j++ {
			for i := 0; i < 17; i++ {
				p := mathx.Vec3{
					X: -1 + 2*float64(i)/16,
					Y: -1 + 2*float64(j)/16,
					Z: float64(k) / 2,
				}
				b.SetPoint(i, j, k, p)
				b.SetVel(i, j, k, mathx.Vec3{X: -p.Y, Y: p.X})
			}
		}
	}
	return &rotationProvider{b: b}
}

func (p *rotationProvider) NumBlocks() int                      { return 1 }
func (p *rotationProvider) NumSteps() int                       { return 1 }
func (p *rotationProvider) Bounds(int, int) grid.AABB           { return p.b.Bounds() }
func (p *rotationProvider) Block(int, int) (*grid.Block, error) { return p.b, nil }

func TestPathlineCircularOrbit(t *testing.T) {
	// Rigid rotation: after time 2π the particle returns to its seed, and
	// the radius is conserved throughout. The provider has one time level,
	// so every step is a steady RK4 step under adaptive step control.
	p := newRotationProvider()
	tr := New(p, 1)
	tr.Tol = 1e-7
	seed := mathx.Vec3{X: 0.5, Y: 0, Z: 0.5}
	path, err := tr.Pathline(seed, 0, 2*math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if path.Left {
		t.Fatal("particle left a domain it cannot leave")
	}
	end := path.Points[len(path.Points)-1]
	if end.Pos.Sub(seed).Norm() > 0.01 {
		t.Fatalf("orbit not closed: end %v vs seed %v", end.Pos, seed)
	}
	for _, pt := range path.Points {
		r := math.Hypot(pt.Pos.X, pt.Pos.Y)
		if math.Abs(r-0.5) > 0.01 {
			t.Fatalf("radius drifted to %v", r)
		}
	}
	if path.Evals == 0 {
		t.Fatal("no velocity evaluations counted")
	}
}

func TestPathlineAdaptivityTightensNearTolerance(t *testing.T) {
	p := newRotationProvider()
	loose := New(p, 1)
	loose.Tol = 1e-3
	tight := New(p, 1)
	tight.Tol = 1e-9
	seed := mathx.Vec3{X: 0.7, Y: 0, Z: 0.5}
	lp, _ := loose.Pathline(seed, 0, math.Pi)
	tp, _ := tight.Pathline(seed, 0, math.Pi)
	if tp.Evals <= lp.Evals {
		t.Fatalf("tight tolerance used %d evals, loose %d: adaptivity broken", tp.Evals, lp.Evals)
	}
}

func TestPathlineOnTinyDataset(t *testing.T) {
	d := dataset.Tiny().WithScale(2)
	p := newDescProvider(d)
	tr := New(p, 1.0)
	tr.Tol = 1e-4
	// Seed inside block 1; rigid rotation about (x=0.5?, ...) — tiny's flow
	// rotates about (0.5, 0.5) per block construction... it uses global
	// coords: u = (-(y-0.5), x-0.5, 0.1): particle spirals upward.
	seed := mathx.Vec3{X: 0.6, Y: 0.5, Z: 0.2}
	path, err := tr.Pathline(seed, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Points) < 3 {
		t.Fatalf("path too short: %d points", len(path.Points))
	}
	end := path.Points[len(path.Points)-1]
	if !(end.T > 0.2) {
		t.Fatalf("integration stalled at t=%v", end.T)
	}
	// z must increase monotonically (w = 0.1 > 0 everywhere).
	for i := 1; i < len(path.Points); i++ {
		if path.Points[i].Pos.Z < path.Points[i-1].Pos.Z-1e-9 {
			t.Fatal("z not increasing despite positive vertical velocity")
		}
	}
}

func TestPathlineUsesBothTimeLevels(t *testing.T) {
	d := dataset.Tiny()
	p := newDescProvider(d)
	tr := New(p, 1.0)
	seed := mathx.Vec3{X: 0.5, Y: 0.3, Z: 0.3}
	if _, err := tr.Pathline(seed, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	steps := map[int]bool{}
	for _, k := range p.trace {
		steps[k[0]] = true
	}
	if !steps[0] || !steps[1] {
		t.Fatalf("pathline touched steps %v, want both 0 and 1 (Weller scheme)", steps)
	}
}

func TestPathlineBlockRequestTraceIsReported(t *testing.T) {
	d := dataset.Tiny().WithScale(2)
	p := newDescProvider(d)
	tr := New(p, 1.0)
	var reported [][2]int
	tr.OnBlockRequest = func(step, block int) { reported = append(reported, [2]int{step, block}) }
	seed := mathx.Vec3{X: 1.5, Y: 0.5, Z: 0.2} // starts in block 1
	if _, err := tr.Pathline(seed, 0, 0.8); err != nil {
		t.Fatal(err)
	}
	if len(reported) == 0 {
		t.Fatal("no block requests reported")
	}
	if len(reported) != len(p.trace) {
		t.Fatalf("reported %d requests, provider saw %d", len(reported), len(p.trace))
	}
}

func TestPathlineLeavesDomainGracefully(t *testing.T) {
	d := dataset.Tiny()
	p := newDescProvider(d)
	tr := New(p, 1.0)
	// Seed near the top: w=0.1 pushes it out through z=1.
	seed := mathx.Vec3{X: 0.5, Y: 0.5, Z: 0.97}
	path, err := tr.Pathline(seed, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !path.Left {
		t.Fatal("particle should have left the domain")
	}
	end := path.Points[len(path.Points)-1]
	if end.T >= 1.0 {
		t.Fatal("Left set but integration claims completion")
	}
}

func TestPathlineRejectsBadStepDt(t *testing.T) {
	tr := New(newRotationProvider(), 0)
	if _, err := tr.Pathline(mathx.Vec3{}, 0, 1); err == nil {
		t.Fatal("expected error for StepDt=0")
	}
}

func TestSeedBox(t *testing.T) {
	box := grid.AABB{Min: mathx.Vec3{}, Max: mathx.Vec3{X: 1, Y: 2, Z: 3}}
	seeds := SeedBox(box, 10)
	if len(seeds) != 10 {
		t.Fatalf("got %d seeds, want 10", len(seeds))
	}
	for _, s := range seeds {
		if !box.Contains(s, 0) {
			t.Fatalf("seed %v outside box", s)
		}
	}
	if SeedBox(box, 0) != nil {
		t.Fatal("0 seeds should be nil")
	}
	// Deterministic.
	again := SeedBox(box, 10)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("seed cloud not deterministic")
		}
	}
}

func TestEngineSeedsProduceSwirlingPaths(t *testing.T) {
	d := dataset.Engine()
	p := newDescProvider(d)
	tr := New(p, 0.001) // 1 ms between steps
	tr.Tol = 1e-5
	seed := mathx.Vec3{X: 0.02, Y: 0, Z: 0.05}
	path, err := tr.Pathline(seed, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Points) < 5 {
		t.Fatalf("engine path too short: %d", len(path.Points))
	}
	// The swirl must carry the particle through multiple wedge blocks.
	blocks := map[int]bool{}
	for _, k := range p.trace {
		blocks[k[1]] = true
	}
	if len(blocks) < 2 {
		t.Fatalf("particle touched only %d block(s); swirl should cross wedges", len(blocks))
	}
}

func TestPathlineThroughMovingGeometry(t *testing.T) {
	// The moving-piston engine deforms per step: the tracer must keep
	// locating particles as the grid shrinks, using per-step bounds.
	d, err := dataset.ByName("engine-moving")
	if err != nil {
		t.Fatal(err)
	}
	p := newDescProvider(d)
	tr := New(p, 0.001)
	tr.Tol = 1e-4
	seed := mathx.Vec3{X: 0.02, Y: 0, Z: 0.04}
	path, perr := tr.Pathline(seed, 0, 0.012)
	if perr != nil {
		t.Fatal(perr)
	}
	if len(path.Points) < 5 {
		t.Fatalf("path too short: %d points", len(path.Points))
	}
	// The trace must have consulted several time levels of the deforming
	// grid.
	steps := map[int]bool{}
	for _, k := range p.trace {
		steps[k[0]] = true
	}
	if len(steps) < 3 {
		t.Fatalf("only %d time levels touched", len(steps))
	}
}

func TestNeighborAdjacency(t *testing.T) {
	d := dataset.Engine()
	p := newDescProvider(d)
	tr := New(p, 0.001)
	tr.reset()
	// Wedge 0's neighbours must include the adjacent wedges 1 and 22 and
	// exclude the opposite side of the cylinder.
	n := tr.neighborsOf(0, 0)
	has := map[int]bool{}
	for _, b := range n {
		has[b] = true
	}
	if !has[1] || !has[22] {
		t.Fatalf("wedge 0 neighbours = %v, want 1 and 22 included", n)
	}
	if has[11] || has[12] {
		t.Fatalf("wedge 0 neighbours include the far side: %v", n)
	}
}

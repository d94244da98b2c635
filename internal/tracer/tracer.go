// Package tracer implements time-dependent particle tracing (pathlines) over
// multi-block data, following the scheme the paper
// uses (§6.3, after Gerndt et al. 2003): fourth-order Runge-Kutta with
// adaptive step-size control, where the position increment is computed
// separately on the two adjacent time levels and interpolated with respect
// to the elapsed time. Block requests go through a provider interface backed
// by the DMS, and every distinct (step, block) fetch is reported so the
// Markov prefetcher can learn the request sequence.
package tracer

import (
	"fmt"
	"math"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
)

// Provider supplies block metadata and block data for a data set. The
// command layer backs it with a DMS proxy; tests back it with generated
// blocks.
type Provider interface {
	NumBlocks() int
	NumSteps() int
	// Bounds must not trigger a block load (it is cheap metadata).
	Bounds(step, block int) grid.AABB
	// Block loads (or returns cached) block data.
	Block(step, block int) (*grid.Block, error)
}

// Point is one sample of a particle trajectory.
type Point struct {
	Pos mathx.Vec3
	T   float64
}

// Path is a computed particle trace with its cost counters.
type Path struct {
	Points []Point
	// Evals counts velocity evaluations (the compute currency).
	Evals int
	// Rejected counts adaptive steps that had to be retried.
	Rejected int
	// Left reports whether the particle left the domain before t1.
	Left bool
}

// Tracer integrates particles through a Provider-backed data set.
type Tracer struct {
	P Provider
	// StepDt is the physical time between consecutive data-set steps.
	StepDt float64
	// Tol is the adaptive error tolerance per step (absolute, in domain
	// length units).
	Tol float64
	// H0 is the initial adaptive step size; HMin is its floor.
	H0, HMin float64
	// MaxPoints caps the trajectory length as a runaway guard.
	MaxPoints int
	// OnBlockRequest, when set, is called for every distinct block fetch in
	// request order — the trace the Markov prefetcher learns from.
	OnBlockRequest func(step, block int)

	// per-trace state
	blocks    map[[2]int]*grid.Block
	neighbors map[[2]int][]int // adjacency cache: step,block → near blocks
	hintBlock int
	hintLoc   grid.CellLoc
}

// New returns a tracer with sane defaults for the given provider and
// inter-step physical time.
func New(p Provider, stepDt float64) *Tracer {
	return &Tracer{
		P:         p,
		StepDt:    stepDt,
		Tol:       1e-5,
		H0:        stepDt / 10,
		HMin:      stepDt / 1e4,
		MaxPoints: 20000,
	}
}

func (tr *Tracer) reset() {
	tr.blocks = map[[2]int]*grid.Block{}
	tr.neighbors = map[[2]int][]int{}
	tr.hintBlock = -1
	tr.hintLoc = grid.CellLoc{}
}

// neighborsOf returns the blocks whose bounds overlap the hint block's
// (slightly expanded) bounds at the given step — the only candidates a
// particle can step into from there. Computed once per (step, block) per
// trace from cheap metadata.
func (tr *Tracer) neighborsOf(step, blk int) []int {
	key := [2]int{step, blk}
	if n, ok := tr.neighbors[key]; ok {
		return n
	}
	home := tr.P.Bounds(step, blk)
	pad := 0.05 * home.Diagonal()
	grown := home
	grown.Min = grown.Min.Sub(mathx.Vec3{X: pad, Y: pad, Z: pad})
	grown.Max = grown.Max.Add(mathx.Vec3{X: pad, Y: pad, Z: pad})
	var out []int
	for b := 0; b < tr.P.NumBlocks(); b++ {
		if b == blk {
			continue
		}
		other := tr.P.Bounds(step, b)
		if boxesOverlap(grown, other) {
			out = append(out, b)
		}
	}
	tr.neighbors[key] = out
	return out
}

func boxesOverlap(a, b grid.AABB) bool {
	return a.Min.X <= b.Max.X && b.Min.X <= a.Max.X &&
		a.Min.Y <= b.Max.Y && b.Min.Y <= a.Max.Y &&
		a.Min.Z <= b.Max.Z && b.Min.Z <= a.Max.Z
}

// block fetches (step,block), memoizing per trace and reporting the request
// sequence.
func (tr *Tracer) block(step, blk int) (*grid.Block, error) {
	key := [2]int{step, blk}
	if b, ok := tr.blocks[key]; ok {
		return b, nil
	}
	if tr.OnBlockRequest != nil {
		tr.OnBlockRequest(step, blk)
	}
	b, err := tr.P.Block(step, blk)
	if err != nil {
		return nil, err
	}
	tr.blocks[key] = b
	return b, nil
}

// velocityAtStep evaluates the (steady) velocity of one time level at p.
func (tr *Tracer) velocityAtStep(step int, p mathx.Vec3, evals *int) (mathx.Vec3, bool) {
	*evals++
	const eps = 1e-9
	// Hint block first: particles move slowly relative to block extents.
	if tr.hintBlock >= 0 {
		if tr.P.Bounds(step, tr.hintBlock).Contains(p, eps) {
			b, err := tr.block(step, tr.hintBlock)
			if err == nil {
				if v, ok := b.VelocityAt(p, &tr.hintLoc); ok {
					return v, true
				}
			}
		}
	}
	// The hint block's neighbours first: a particle can only have stepped
	// into an adjacent block.
	if tr.hintBlock >= 0 {
		for _, blk := range tr.neighborsOf(step, tr.hintBlock) {
			if v, ok := tr.tryBlock(step, blk, p, eps); ok {
				return v, true
			}
		}
	}
	// Full scan fallback (first location, or teleport-sized steps).
	for blk := 0; blk < tr.P.NumBlocks(); blk++ {
		if blk == tr.hintBlock {
			continue
		}
		if v, ok := tr.tryBlock(step, blk, p, eps); ok {
			return v, true
		}
	}
	return mathx.Vec3{}, false
}

// tryBlock attempts a bounds test, load and locate in one block.
func (tr *Tracer) tryBlock(step, blk int, p mathx.Vec3, eps float64) (mathx.Vec3, bool) {
	if !tr.P.Bounds(step, blk).Contains(p, eps) {
		return mathx.Vec3{}, false
	}
	b, err := tr.block(step, blk)
	if err != nil {
		return mathx.Vec3{}, false
	}
	var loc grid.CellLoc
	v, ok := b.VelocityAt(p, &loc)
	if !ok {
		return mathx.Vec3{}, false
	}
	tr.hintBlock = blk
	tr.hintLoc = loc
	return v, true
}

// rk4Step advances p by h through the steady field of one time level.
func (tr *Tracer) rk4Step(step int, p mathx.Vec3, h float64, evals *int) (mathx.Vec3, bool) {
	k1, ok := tr.velocityAtStep(step, p, evals)
	if !ok {
		return p, false
	}
	k2, ok := tr.velocityAtStep(step, p.Add(k1.Scale(h/2)), evals)
	if !ok {
		return p, false
	}
	k3, ok := tr.velocityAtStep(step, p.Add(k2.Scale(h/2)), evals)
	if !ok {
		return p, false
	}
	k4, ok := tr.velocityAtStep(step, p.Add(k3.Scale(h)), evals)
	if !ok {
		return p, false
	}
	inc := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6)
	return p.Add(inc), true
}

// wellerStep advances p by h at physical time t: the increment is computed
// independently on the two adjacent time levels and blended with the elapsed
// time, as in the paper's pathline scheme.
func (tr *Tracer) wellerStep(p mathx.Vec3, t, h float64, evals *int) (mathx.Vec3, bool) {
	s := t / tr.StepDt
	s0 := int(math.Floor(s))
	last := tr.P.NumSteps() - 1
	if s0 < 0 {
		s0 = 0
	}
	if s0 >= last {
		s0 = last - 1
		if s0 < 0 {
			// Single-step data set: steady tracing.
			return tr.rk4Step(0, p, h, evals)
		}
	}
	s1 := s0 + 1
	alpha := mathx.Clamp(s-float64(s0), 0, 1)
	p0, ok0 := tr.rk4Step(s0, p, h, evals)
	p1, ok1 := tr.rk4Step(s1, p, h, evals)
	if !ok0 || !ok1 {
		return p, false
	}
	return p0.Lerp(p1, alpha), true
}

// integrate advances a particle from (seed, t0) to t1 with adaptive
// step-size control (step doubling: a full step is compared with two half
// steps; the halved solution is kept), appending every accepted position to
// path.
func (tr *Tracer) integrate(seed mathx.Vec3, t0, t1 float64, path *Path) {
	p := seed
	t := t0
	h := tr.H0
	path.Points = append(path.Points, Point{Pos: p, T: t})
	steps := 0
	for t < t1 && steps < tr.MaxPoints {
		if h > t1-t {
			h = t1 - t
		}
		full, okF := tr.wellerStep(p, t, h, &path.Evals)
		half, okH := tr.wellerStep(p, t, h/2, &path.Evals)
		var fine mathx.Vec3
		okH2 := false
		if okH {
			fine, okH2 = tr.wellerStep(half, t+h/2, h/2, &path.Evals)
		}
		if !okF || !okH || !okH2 {
			// Leaving the domain: try to creep closer with minimal steps.
			if h > tr.HMin {
				h = math.Max(tr.HMin, h/4)
				path.Rejected++
				continue
			}
			path.Left = true
			break
		}
		err := full.Sub(fine).Norm()
		if err > tr.Tol && h > tr.HMin {
			h = math.Max(tr.HMin, h/2)
			path.Rejected++
			continue
		}
		p = fine
		t += h
		steps++
		path.Points = append(path.Points, Point{Pos: p, T: t})
	}
}

// Pathline integrates a particle from seed over physical time [t0, t1],
// returning every accepted position.
func (tr *Tracer) Pathline(seed mathx.Vec3, t0, t1 float64) (Path, error) {
	if tr.StepDt <= 0 {
		return Path{}, fmt.Errorf("tracer: StepDt must be positive")
	}
	tr.reset()
	var path Path
	tr.integrate(seed, t0, t1, &path)
	return path, nil
}

// SeedBox returns an n-point seed cloud uniformly gridded inside box,
// deterministic for reproducible experiments.
func SeedBox(box grid.AABB, n int) []mathx.Vec3 {
	if n <= 0 {
		return nil
	}
	side := int(math.Ceil(math.Cbrt(float64(n))))
	var out []mathx.Vec3
	for k := 0; k < side && len(out) < n; k++ {
		for j := 0; j < side && len(out) < n; j++ {
			for i := 0; i < side && len(out) < n; i++ {
				f := func(a int) float64 { return (float64(a) + 0.5) / float64(side) }
				out = append(out, mathx.Vec3{
					X: box.Min.X + f(i)*(box.Max.X-box.Min.X),
					Y: box.Min.Y + f(j)*(box.Max.Y-box.Min.Y),
					Z: box.Min.Z + f(k)*(box.Max.Z-box.Min.Z),
				})
			}
		}
	}
	return out
}

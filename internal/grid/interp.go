package grid

import (
	"math"

	"viracocha/internal/mathx"
)

// trilinearWeights returns the 8 corner weights for fractional coordinates
// (r,s,t) in [0,1]³, in CellCorners order.
func trilinearWeights(r, s, t float64) [8]float64 {
	mr, ms, mt := 1-r, 1-s, 1-t
	return [8]float64{
		mr * ms * mt,
		r * ms * mt,
		r * s * mt,
		mr * s * mt,
		mr * ms * t,
		r * ms * t,
		r * s * t,
		mr * s * t,
	}
}

// InterpPoint evaluates the physical position of the trilinear map of cell
// (ci,cj,ck) at natural coordinates (r,s,t) ∈ [0,1]³.
func (b *Block) InterpPoint(ci, cj, ck int, r, s, t float64) mathx.Vec3 {
	c := b.CellCorners(ci, cj, ck)
	w := trilinearWeights(r, s, t)
	var p mathx.Vec3
	for n := 0; n < 8; n++ {
		q := 3 * c[n]
		p.X += w[n] * float64(b.Points[q])
		p.Y += w[n] * float64(b.Points[q+1])
		p.Z += w[n] * float64(b.Points[q+2])
	}
	return p
}

// InterpVelocity evaluates the velocity field inside cell (ci,cj,ck) at
// natural coordinates (r,s,t).
func (b *Block) InterpVelocity(ci, cj, ck int, r, s, t float64) mathx.Vec3 {
	c := b.CellCorners(ci, cj, ck)
	w := trilinearWeights(r, s, t)
	var v mathx.Vec3
	for n := 0; n < 8; n++ {
		q := 3 * c[n]
		v.X += w[n] * float64(b.Velocity[q])
		v.Y += w[n] * float64(b.Velocity[q+1])
		v.Z += w[n] * float64(b.Velocity[q+2])
	}
	return v
}

// jacobianNatural returns the Jacobian ∂x/∂(r,s,t) of the trilinear map of
// cell (ci,cj,ck) at (r,s,t): column c is the derivative of position with
// respect to natural coordinate c.
func (b *Block) jacobianNatural(ci, cj, ck int, r, s, t float64) mathx.Mat3 {
	c := b.CellCorners(ci, cj, ck)
	var pts [8]mathx.Vec3
	for n := 0; n < 8; n++ {
		q := 3 * c[n]
		pts[n] = mathx.Vec3{X: float64(b.Points[q]), Y: float64(b.Points[q+1]), Z: float64(b.Points[q+2])}
	}
	mr, ms, mt := 1-r, 1-s, 1-t
	// ∂w/∂r for the 8 corners.
	dr := [8]float64{-ms * mt, ms * mt, s * mt, -s * mt, -ms * t, ms * t, s * t, -s * t}
	ds := [8]float64{-mr * mt, -r * mt, r * mt, mr * mt, -mr * t, -r * t, r * t, mr * t}
	dt := [8]float64{-mr * ms, -r * ms, -r * s, -mr * s, mr * ms, r * ms, r * s, mr * s}
	var jr, js, jt mathx.Vec3
	for n := 0; n < 8; n++ {
		jr = jr.Add(pts[n].Scale(dr[n]))
		js = js.Add(pts[n].Scale(ds[n]))
		jt = jt.Add(pts[n].Scale(dt[n]))
	}
	return mathx.Mat3{
		{jr.X, js.X, jt.X},
		{jr.Y, js.Y, jt.Y},
		{jr.Z, js.Z, jt.Z},
	}
}

// NaturalCoords inverts the trilinear map of cell (ci,cj,ck) for physical
// point p by Newton iteration. It returns the natural coordinates and ok
// true when the iteration converged to a point with all coordinates in
// [-slack, 1+slack]; coordinates are still returned on ok=false so callers
// can steer a cell walk.
func (b *Block) NaturalCoords(ci, cj, ck int, p mathx.Vec3) (r, s, t float64, ok bool) {
	const (
		maxIter = 24
		tol     = 1e-10
		slack   = 1e-6
	)
	r, s, t = 0.5, 0.5, 0.5
	for iter := 0; iter < maxIter; iter++ {
		cur := b.InterpPoint(ci, cj, ck, r, s, t)
		res := p.Sub(cur)
		if res.Dot(res) < tol*tol {
			break
		}
		j := b.jacobianNatural(ci, cj, ck, r, s, t)
		d, solvable := mathx.Solve3(j, res)
		if !solvable {
			return r, s, t, false
		}
		// Damp huge Newton steps so the walk stays informative even when the
		// point is far outside this cell.
		const maxStep = 4.0
		d.X = mathx.Clamp(d.X, -maxStep, maxStep)
		d.Y = mathx.Clamp(d.Y, -maxStep, maxStep)
		d.Z = mathx.Clamp(d.Z, -maxStep, maxStep)
		r += d.X
		s += d.Y
		t += d.Z
	}
	inside := r >= -slack && r <= 1+slack &&
		s >= -slack && s <= 1+slack &&
		t >= -slack && t <= 1+slack
	if inside {
		// Verify residual: Newton can "converge" outside for folded cells.
		cur := b.InterpPoint(ci, cj, ck, r, s, t)
		if cur.Sub(p).Norm() > 1e-5*(1+b.cellScale(ci, cj, ck)) {
			inside = false
		}
	}
	return r, s, t, inside
}

func (b *Block) cellScale(ci, cj, ck int) float64 {
	a := b.Point(ci, cj, ck)
	c := b.Point(ci+1, cj+1, ck+1)
	return c.Sub(a).Norm()
}

// CellLoc identifies a cell within a block plus natural coordinates of a
// located point, used as the warm-start state of the cell walker.
type CellLoc struct {
	CI, CJ, CK int
	R, S, T    float64
}

// Locate finds the cell containing physical point p using a cell walk that
// starts at hint (if non-nil) or at the block centre. It returns ok=false
// when the walk leaves the block or fails to converge, which for interior
// points of well-shaped blocks does not happen.
func (b *Block) Locate(p mathx.Vec3, hint *CellLoc) (CellLoc, bool) {
	ci, cj, ck := (b.NI-1)/2, (b.NJ-1)/2, (b.NK-1)/2
	if hint != nil {
		ci, cj, ck = hint.CI, hint.CJ, hint.CK
	}
	maxWalk := b.NI + b.NJ + b.NK
	for step := 0; step < maxWalk; step++ {
		ci = clampInt(ci, 0, b.NI-2)
		cj = clampInt(cj, 0, b.NJ-2)
		ck = clampInt(ck, 0, b.NK-2)
		r, s, t, ok := b.NaturalCoords(ci, cj, ck, p)
		if ok {
			return CellLoc{CI: ci, CJ: cj, CK: ck, R: mathx.Clamp(r, 0, 1), S: mathx.Clamp(s, 0, 1), T: mathx.Clamp(t, 0, 1)}, true
		}
		// Walk toward the point along whichever natural coordinates left
		// the unit cube.
		moved := false
		if r < 0 && ci > 0 {
			ci += stepFor(r)
			moved = true
		} else if r > 1 && ci < b.NI-2 {
			ci += stepFor(r)
			moved = true
		}
		if s < 0 && cj > 0 {
			cj += stepFor(s)
			moved = true
		} else if s > 1 && cj < b.NJ-2 {
			cj += stepFor(s)
			moved = true
		}
		if t < 0 && ck > 0 {
			ck += stepFor(t)
			moved = true
		} else if t > 1 && ck < b.NK-2 {
			ck += stepFor(t)
			moved = true
		}
		if !moved {
			return CellLoc{}, false
		}
	}
	return CellLoc{}, false
}

// stepFor converts a natural-coordinate excess into an index step, moving
// several cells at once when the point is far away.
func stepFor(x float64) int {
	var d float64
	if x < 0 {
		d = x
	} else {
		d = x - 1
	}
	n := int(math.Ceil(math.Abs(d)))
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	if d < 0 {
		return -n
	}
	return n
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// VelocityAt evaluates the velocity at physical point p, using and updating
// the walker hint. ok is false when p is outside the block.
func (b *Block) VelocityAt(p mathx.Vec3, hint *CellLoc) (mathx.Vec3, bool) {
	loc, ok := b.Locate(p, hint)
	if !ok {
		return mathx.Vec3{}, false
	}
	if hint != nil {
		*hint = loc
	}
	return b.InterpVelocity(loc.CI, loc.CJ, loc.CK, loc.R, loc.S, loc.T), true
}

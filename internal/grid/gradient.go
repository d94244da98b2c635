package grid

import (
	"math"

	"viracocha/internal/mathx"
)

// VelocityGradient computes the physical-space velocity-gradient tensor
// ∂u_r/∂x_c at node (i,j,k) on the curvilinear grid: finite differences in
// index space are mapped through the inverse geometric Jacobian,
// J = U_ξ · X_ξ⁻¹. One-sided differences are used on block faces. ok is
// false where the geometric Jacobian is singular (degenerate cells).
//
// This per-node form is the reference: production code evaluates gradients a
// row at a time through VelocityGradientRow, and the grid, vortex and
// dataset suites pin that kernel against this one bit for bit.
func (b *Block) VelocityGradient(i, j, k int) (mathx.Mat3, bool) {
	uXi := b.diffTensor(b.Velocity, i, j, k)
	xXi := b.diffTensor(b.Points, i, j, k)
	inv, ok := xXi.Inverse()
	if !ok {
		return mathx.Mat3{}, false
	}
	return uXi.Mul(inv), true
}

// diffTensor returns the index-space derivative tensor of a 3-component node
// field: column c holds ∂f/∂ξ_c by central (interior) or one-sided (face)
// differences.
func (b *Block) diffTensor(field []float32, i, j, k int) mathx.Mat3 {
	di := b.diffAlong(field, i, j, k, 0)
	dj := b.diffAlong(field, i, j, k, 1)
	dk := b.diffAlong(field, i, j, k, 2)
	return mathx.Mat3{
		{di.X, dj.X, dk.X},
		{di.Y, dj.Y, dk.Y},
		{di.Z, dj.Z, dk.Z},
	}
}

func (b *Block) diffAlong(field []float32, i, j, k, axis int) mathx.Vec3 {
	dims := [3]int{b.NI, b.NJ, b.NK}
	pos := [3]int{i, j, k}
	lo, hi := pos, pos
	scale := 0.5
	switch {
	case pos[axis] == 0:
		hi[axis]++
		scale = 1
	case pos[axis] == dims[axis]-1:
		lo[axis]--
		scale = 1
	default:
		lo[axis]--
		hi[axis]++
	}
	a := 3 * b.Index(lo[0], lo[1], lo[2])
	c := 3 * b.Index(hi[0], hi[1], hi[2])
	return mathx.Vec3{
		X: scale * float64(field[c]-field[a]),
		Y: scale * float64(field[c+1]-field[a+1]),
		Z: scale * float64(field[c+2]-field[a+2]),
	}
}

// MinJacobianDet returns the smallest determinant of the geometric Jacobian
// over all cell centres — a mesh-quality metric: non-positive values mean
// folded or degenerate cells, which break interpolation, point location and
// gradients. Data-set generators are validated with it.
func (b *Block) MinJacobianDet() float64 {
	min := math.Inf(1)
	for ck := 0; ck < b.NK-1; ck++ {
		for cj := 0; cj < b.NJ-1; cj++ {
			for ci := 0; ci < b.NI-1; ci++ {
				j := b.jacobianNatural(ci, cj, ck, 0.5, 0.5, 0.5)
				if d := j.Det(); d < min {
					min = d
				}
			}
		}
	}
	return min
}

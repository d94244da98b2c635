package grid

import (
	"math"
	"sync"
)

// This file holds the slab-blocked form of the velocity-gradient evaluation:
// VelocityGradientRow computes the tensor for a whole (j,k) node row at once
// with flat index arithmetic, a rolling three-node window for the i-axis
// differences (each corner value is loaded and converted once), and the
// inverse-Jacobian/product algebra specialized onto scalars. Every operation
// matches the per-node VelocityGradient reference bit for bit — the grid
// and vortex determinism tests pin that.

// JacRow is pooled scratch for one row of velocity-gradient tensors: Jac
// holds 9 float64 per node (row-major, node i at Jac[9i:9i+9]), OK the
// per-node singularity flags.
type JacRow struct {
	Jac []float64
	OK  []bool
}

// jacRowPool recycles row scratch across blocks and requests; blocks within
// a data set share dimensions, so a pooled row almost always fits.
var jacRowPool sync.Pool

// AcquireJacRow returns row scratch sized for ni nodes. Contents are
// unspecified — VelocityGradientRow overwrites every used element. Pair with
// ReleaseJacRow.
func AcquireJacRow(ni int) *JacRow {
	r, _ := jacRowPool.Get().(*JacRow)
	if r == nil {
		r = &JacRow{}
	}
	r.Fit(ni)
	return r
}

// Fit sizes r for ni nodes, reallocating only when its capacity is short.
// Contents are unspecified afterwards.
func (r *JacRow) Fit(ni int) {
	if cap(r.Jac) >= 9*ni && cap(r.OK) >= ni {
		r.Jac = r.Jac[:9*ni]
		r.OK = r.OK[:ni]
	} else {
		r.Jac = make([]float64, 9*ni)
		r.OK = make([]bool, ni)
	}
}

// ReleaseJacRow returns row scratch to the pool. The caller must not use r
// (or its slices) afterwards.
func ReleaseJacRow(r *JacRow) {
	jacRowPool.Put(r)
}

// rowDiff returns the finite-difference stencil along one axis for a fixed
// position: lo/hi node offsets (in nodes) and the central/one-sided scale,
// exactly as diffAlong selects them.
func rowDiff(pos, dim, stride int) (lo, hi int, scale float64) {
	switch {
	case pos == 0:
		return 0, stride, 1
	case pos == dim-1:
		return -stride, 0, 1
	default:
		return -stride, stride, 0.5
	}
}

// VelocityGradientRow computes VelocityGradient for every node (·, j, k) of
// the block into row scratch: jac receives 9 float64 per node, ok the
// singularity flags (jac entries of singular nodes are unspecified). Results
// are bit-identical to the per-node path. Blocks are assumed ≥ 2 nodes per
// axis, as everywhere else in the gradient code.
func (b *Block) VelocityGradientRow(j, k int, jac []float64, ok []bool) {
	ni := b.NI
	vel, pts := b.Velocity, b.Points
	jlo, jhi, jsc := rowDiff(j, b.NJ, b.NI)
	klo, khi, ksc := rowDiff(k, b.NK, b.NI*b.NJ)
	base := b.Index(0, j, k)

	// Rolling i-axis window: raw float32 values at nodes i−1, i, i+1 so the
	// subtraction stays in float32 exactly as diffAlong performs it, and
	// each node's six components are loaded and shifted once.
	var vmx, vmy, vmz, vcx, vcy, vcz, vpx, vpy, vpz float32
	var pmx, pmy, pmz, pcx, pcy, pcz, ppx, ppy, ppz float32
	f := 3 * base
	vcx, vcy, vcz = vel[f], vel[f+1], vel[f+2]
	pcx, pcy, pcz = pts[f], pts[f+1], pts[f+2]
	vpx, vpy, vpz = vel[f+3], vel[f+4], vel[f+5]
	ppx, ppy, ppz = pts[f+3], pts[f+4], pts[f+5]

	for i := 0; i < ni; i++ {
		idx := base + i

		// Column 0: ∂/∂ξ_i from the window.
		var isc float64
		var dvx0, dvy0, dvz0, dpx0, dpy0, dpz0 float32
		switch {
		case i == 0:
			isc = 1
			dvx0, dvy0, dvz0 = vpx-vcx, vpy-vcy, vpz-vcz
			dpx0, dpy0, dpz0 = ppx-pcx, ppy-pcy, ppz-pcz
		case i == ni-1:
			isc = 1
			dvx0, dvy0, dvz0 = vcx-vmx, vcy-vmy, vcz-vmz
			dpx0, dpy0, dpz0 = pcx-pmx, pcy-pmy, pcz-pmz
		default:
			isc = 0.5
			dvx0, dvy0, dvz0 = vpx-vmx, vpy-vmy, vpz-vmz
			dpx0, dpy0, dpz0 = ppx-pmx, ppy-pmy, ppz-pmz
		}
		u00 := isc * float64(dvx0)
		u10 := isc * float64(dvy0)
		u20 := isc * float64(dvz0)
		x00 := isc * float64(dpx0)
		x10 := isc * float64(dpy0)
		x20 := isc * float64(dpz0)

		// Columns 1 and 2: ∂/∂ξ_j and ∂/∂ξ_k with row-constant stencils.
		a := 3 * (idx + jlo)
		c := 3 * (idx + jhi)
		u01 := jsc * float64(vel[c]-vel[a])
		u11 := jsc * float64(vel[c+1]-vel[a+1])
		u21 := jsc * float64(vel[c+2]-vel[a+2])
		x01 := jsc * float64(pts[c]-pts[a])
		x11 := jsc * float64(pts[c+1]-pts[a+1])
		x21 := jsc * float64(pts[c+2]-pts[a+2])
		a = 3 * (idx + klo)
		c = 3 * (idx + khi)
		u02 := ksc * float64(vel[c]-vel[a])
		u12 := ksc * float64(vel[c+1]-vel[a+1])
		u22 := ksc * float64(vel[c+2]-vel[a+2])
		x02 := ksc * float64(pts[c]-pts[a])
		x12 := ksc * float64(pts[c+1]-pts[a+1])
		x22 := ksc * float64(pts[c+2]-pts[a+2])

		// Advance the window before the (frequent) singular-continue below.
		if i+2 < ni {
			f = 3 * (idx + 2)
			vmx, vmy, vmz = vcx, vcy, vcz
			vcx, vcy, vcz = vpx, vpy, vpz
			vpx, vpy, vpz = vel[f], vel[f+1], vel[f+2]
			pmx, pmy, pmz = pcx, pcy, pcz
			pcx, pcy, pcz = ppx, ppy, ppz
			ppx, ppy, ppz = pts[f], pts[f+1], pts[f+2]
		} else {
			vmx, vmy, vmz = vcx, vcy, vcz
			vcx, vcy, vcz = vpx, vpy, vpz
			pmx, pmy, pmz = pcx, pcy, pcz
			pcx, pcy, pcz = ppx, ppy, ppz
		}

		// X_ξ⁻¹ exactly as Mat3.Inverse computes it.
		det := x00*(x11*x22-x12*x21) -
			x01*(x10*x22-x12*x20) +
			x02*(x10*x21-x11*x20)
		maxAbs := math.Abs(x00)
		if v := math.Abs(x01); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(x02); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(x10); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(x11); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(x12); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(x20); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(x21); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(x22); v > maxAbs {
			maxAbs = v
		}
		if math.Abs(det) < 1e-14*(1+maxAbs*maxAbs*maxAbs) {
			ok[i] = false
			continue
		}
		ok[i] = true
		inv := 1 / det
		n00 := (x11*x22 - x12*x21) * inv
		n01 := (x02*x21 - x01*x22) * inv
		n02 := (x01*x12 - x02*x11) * inv
		n10 := (x12*x20 - x10*x22) * inv
		n11 := (x00*x22 - x02*x20) * inv
		n12 := (x02*x10 - x00*x12) * inv
		n20 := (x10*x21 - x11*x20) * inv
		n21 := (x01*x20 - x00*x21) * inv
		n22 := (x00*x11 - x01*x10) * inv

		// J = U_ξ · X_ξ⁻¹, accumulated in Mul's exact order.
		o := 9 * i
		acc := 0.0
		acc += u00 * n00
		acc += u01 * n10
		acc += u02 * n20
		jac[o] = acc
		acc = 0.0
		acc += u00 * n01
		acc += u01 * n11
		acc += u02 * n21
		jac[o+1] = acc
		acc = 0.0
		acc += u00 * n02
		acc += u01 * n12
		acc += u02 * n22
		jac[o+2] = acc
		acc = 0.0
		acc += u10 * n00
		acc += u11 * n10
		acc += u12 * n20
		jac[o+3] = acc
		acc = 0.0
		acc += u10 * n01
		acc += u11 * n11
		acc += u12 * n21
		jac[o+4] = acc
		acc = 0.0
		acc += u10 * n02
		acc += u11 * n12
		acc += u12 * n22
		jac[o+5] = acc
		acc = 0.0
		acc += u20 * n00
		acc += u21 * n10
		acc += u22 * n20
		jac[o+6] = acc
		acc = 0.0
		acc += u20 * n01
		acc += u21 * n11
		acc += u22 * n21
		jac[o+7] = acc
		acc = 0.0
		acc += u20 * n02
		acc += u21 * n12
		acc += u22 * n22
		jac[o+8] = acc
	}
}

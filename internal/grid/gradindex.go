package grid

import "sync"

// GradMagField is the derived-entity field name for the squared velocity-
// gradient magnitude — the quantity the vortex-skip index summarizes.
const GradMagField = "gradmag2"

// lambda2Slack is the relative margin the λ2 exclusion tests keep between
// the analytic bound and the threshold, covering the float32 rounding of
// the stored brick maxima and the float64 round-off of the eigen-solve.
// The bound itself is exact mathematics; the slack only guards arithmetic.
const lambda2Slack = 1e-6

// GradMag2Into fills out (length NumNodes) with the squared Frobenius norm
// ‖J‖²_F of the velocity-gradient tensor at every node — 0 where the
// geometric Jacobian is singular, matching the λ2 kernel's treatment of
// those nodes as never-vortex — and returns the number of nodes computed.
// One eigen-free gradient sweep: roughly a third of a λ2 sweep.
func (b *Block) GradMag2Into(out []float32) int {
	r := AcquireJacRow(b.NI)
	n := 0
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			b.VelocityGradientRow(j, k, r.Jac, r.OK)
			base := b.Index(0, j, k)
			for i := 0; i < b.NI; i++ {
				if !r.OK[i] {
					out[base+i] = 0
					n++
					continue
				}
				o := 9 * i
				g2 := 0.0
				for _, e := range r.Jac[o : o+9] {
					g2 += e * e
				}
				out[base+i] = float32(g2)
				n++
			}
		}
	}
	ReleaseJacRow(r)
	return n
}

// gradFieldPool recycles the gradient-magnitude scratch fields the index
// build uses — the GradField analogue of vortex.AcquireField. Arrays travel
// inside reusable boxes (drained ones parked in gradBoxPool) so a
// Release/Acquire cycle allocates nothing.
var gradFieldPool, gradBoxPool sync.Pool

type gradBox struct{ s []float32 }

// AcquireGradField returns a scratch array of length n for GradMag2Into.
// Contents are unspecified. Pair with ReleaseGradField.
func AcquireGradField(n int) []float32 {
	if b, _ := gradFieldPool.Get().(*gradBox); b != nil {
		s := b.s
		b.s = nil
		gradBoxPool.Put(b)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float32, n)
}

// ReleaseGradField returns a scratch array obtained from AcquireGradField to
// the pool. The caller must not use the slice afterwards.
func ReleaseGradField(s []float32) {
	if cap(s) == 0 {
		return
	}
	b, _ := gradBoxPool.Get().(*gradBox)
	if b == nil {
		b = &gradBox{}
	}
	b.s = s[:0]
	gradFieldPool.Put(b)
}

// GradIndex is the vortex-skip index: a brick min/max summary (4³-cell
// bricks) over the squared gradient magnitude instead of a stored scalar.
// It bounds λ2 without ever computing it: with S and Q the symmetric and
// antisymmetric parts of J, S²+Q² has eigenvalues within
// [−‖Q‖₂², ‖S‖₂²] ⊆ [−‖J‖²_F, ‖J‖²_F], so every node satisfies
// |λ2| ≤ ‖J‖²_F. A brick whose largest gradient magnitude G has
// G² < −λ* therefore provably contains no node with λ2 < λ* for any vortex
// threshold λ* < 0 — no cell in it can have an active corner, and skipping
// it is bit-identical to scanning it. It only proves the vortex-free
// direction, but it is buildable at a third of the λ2 sweep's cost, which is
// exactly what the lazy streamed scan can afford.
//
// It is cached in the DMS as a derived data entity — budgeted, evictable,
// peer-transferable, and built as a prefetch ride-along.
type GradIndex struct {
	MinMaxIndex
}

// BuildGradIndex computes the squared-gradient field into pooled scratch and
// summarizes it into brick min/max ranges; the scratch is released before
// returning, so only the brick arrays stay live.
func BuildGradIndex(b *Block) *GradIndex {
	vals := AcquireGradField(b.NumNodes())
	b.GradMag2Into(vals)
	x := &GradIndex{MinMaxIndex: *BuildMinMax(b, GradMagField, vals)}
	ReleaseGradField(vals)
	return x
}

// excludesLambda2 is the bound test: no λ2 below iso can exist where the
// squared gradient magnitude stays under −iso. Thresholds ≥ 0 are never
// excluded — the bound only has skipping power on the vortex side.
func excludesLambda2(g2max, iso float64) bool {
	if iso >= 0 {
		return false
	}
	return g2max*(1+lambda2Slack) < -iso
}

// BlockExcludesLambda2 reports that no cell of the whole block can be active
// at the λ2 threshold iso — the O(1) test that skips loading the block.
func (x *GradIndex) BlockExcludesLambda2(iso float64) bool {
	return excludesLambda2(float64(x.HiVal), iso)
}

// BrickExcludesLambda2 is BlockExcludesLambda2 for one brick.
func (x *GradIndex) BrickExcludesLambda2(bi, bj, bk int, iso float64) bool {
	n := bi + x.BI*(bj+x.BJ*bk)
	return excludesLambda2(float64(x.Max[n]), iso)
}

// SkipToLambda2 returns the first i-cell at or after ci (row cj,ck) that
// lies in a brick the bound cannot exclude, clamped to hi — the λ2
// counterpart of MinMaxIndex.SkipTo for the guided vortex scan.
func (x *GradIndex) SkipToLambda2(ci, cj, ck int, iso float64, hi int) int {
	bj, bk := cj/MinMaxBrick, ck/MinMaxBrick
	for ci < hi {
		bi := ci / MinMaxBrick
		if !x.BrickExcludesLambda2(bi, bj, bk, iso) {
			return ci
		}
		ci = (bi + 1) * MinMaxBrick
	}
	return hi
}

// Package vortex implements the λ2 vortex criterion (Jeong & Hussain) on
// curvilinear blocks: the velocity-gradient tensor J is split into strain S
// and rotation Q, and λ2 is the middle eigenvalue of S²+Q². Vortex regions
// are where λ2 < 0; extraction triangulates the λ2 ≈ 0 isosurface.
//
// Two evaluation modes mirror the paper's two commands: Compute fills the
// whole scalar field up front (VortexDataMan), while Lazy evaluates nodes on
// demand so the streamed command can emit active cells long before the full
// field exists (StreamedVortex, §6.3).
package vortex

import (
	"sync"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
)

// FieldName is the scalar field name under which λ2 is stored on blocks.
const FieldName = "lambda2"

// nonVortex is the λ2 stand-in where the geometric Jacobian is singular
// (degenerate cells): large positive, so it never reads as a vortex.
const nonVortex = 1e30

// Compute evaluates λ2 at every node of the block, stores it as the
// "lambda2" scalar field, and returns the number of nodes computed. It is
// idempotent: an existing field is recomputed.
func Compute(b *grid.Block) int {
	return computeSlab(b, b.EnsureScalar(FieldName))
}

// ComputeInto evaluates λ2 at every node into the caller-provided array
// (length NumNodes), leaving the block untouched — the form the commands
// use, since cached blocks are shared across workers and must not be
// mutated. It returns the number of nodes computed.
func ComputeInto(b *grid.Block, out []float32) int {
	return computeSlab(b, out)
}

// computeSlab is the slab-blocked λ2 sweep: the velocity gradient is
// evaluated one (j,k) node row at a time into pooled scratch by the
// flat-index row kernel, and each tensor feeds the specialized eigen-solve.
// Every float operation matches the seed per-node path (nodeLambda2 in the
// tests), so the output is bit-identical (TestSlabDeterminism); only the
// bookkeeping — index recomputation, Mat3 copies, per-node call overhead —
// is gone.
func computeSlab(b *grid.Block, out []float32) int {
	r := grid.AcquireJacRow(b.NI)
	n := 0
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			b.VelocityGradientRow(j, k, r.Jac, r.OK)
			base := b.Index(0, j, k)
			jac, ok := r.Jac, r.OK
			for i := 0; i < b.NI; i++ {
				if !ok[i] {
					out[base+i] = float32(float64(nonVortex))
					n++
					continue
				}
				o := 9 * i
				out[base+i] = float32(mathx.Lambda2Jac(
					jac[o], jac[o+1], jac[o+2],
					jac[o+3], jac[o+4], jac[o+5],
					jac[o+6], jac[o+7], jac[o+8]))
				n++
			}
		}
	}
	grid.ReleaseJacRow(r)
	return n
}

// nodeLambda2Fast evaluates λ2 at one node through the specialized
// eigen-solve — bit-identical by construction to the seed's per-node kernel,
// nodeLambda2 in the tests — for the lazy on-demand path, which cannot
// amortize a whole row of gradients per evaluation.
func nodeLambda2Fast(b *grid.Block, i, j, k int) float64 {
	jac, ok := b.VelocityGradient(i, j, k)
	if !ok {
		return nonVortex
	}
	return mathx.Lambda2Jac(
		jac[0][0], jac[0][1], jac[0][2],
		jac[1][0], jac[1][1], jac[1][2],
		jac[2][0], jac[2][1], jac[2][2])
}

// fieldPool recycles the per-request λ2 scratch arrays the commands hand to
// ComputeInto. Blocks within a data set share dimensions, so a pooled array
// almost always fits the next request without reallocating. Arrays travel
// inside reusable fieldBox headers (with drained boxes parked in boxPool) so
// a Release/Acquire cycle allocates nothing — boxing the slice header anew
// on every Put would cost one allocation per cycle.
var fieldPool, boxPool sync.Pool

type fieldBox struct{ s []float32 }

// AcquireField returns a scratch array of length n for ComputeInto. Contents
// are unspecified — ComputeInto overwrites every element. Pair with
// ReleaseField once the extraction that reads the field is done.
func AcquireField(n int) []float32 {
	if b, _ := fieldPool.Get().(*fieldBox); b != nil {
		s := b.s
		b.s = nil
		boxPool.Put(b)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float32, n)
}

// ReleaseField returns a scratch array obtained from AcquireField to the
// pool. The caller must not use the slice afterwards.
func ReleaseField(s []float32) {
	if cap(s) == 0 {
		return
	}
	b, _ := boxPool.Get().(*fieldBox)
	if b == nil {
		b = &fieldBox{}
	}
	b.s = s[:0]
	fieldPool.Put(b)
}

// Lazy evaluates λ2 per node on demand with memoization. The backing array
// is laid out exactly like a block scalar field, so it can be handed to the
// isosurface triangulator directly once the relevant nodes are ensured.
type Lazy struct {
	B    *grid.Block
	vals []float32
	done []bool
	n    int
}

// lazyPool recycles Lazy evaluators (their done arrays) across blocks and
// requests; the vals array comes from the shared fieldPool, so the lazy
// path and ComputeInto reuse the same scratch across Release/re-acquire
// cycles instead of each holding a private copy.
var lazyPool sync.Pool

// NewLazy prepares a lazy evaluator for the block, reusing pooled scratch
// when it fits. Pair with Release when the block is done.
func NewLazy(b *grid.Block) *Lazy {
	nn := b.NumNodes()
	l, _ := lazyPool.Get().(*Lazy)
	if l == nil {
		l = &Lazy{}
	}
	l.B = b
	l.n = 0
	l.vals = AcquireField(nn)
	if cap(l.done) >= nn {
		l.done = l.done[:nn]
		clear(l.done) // vals needs no clearing: done guards every read
	} else {
		l.done = make([]bool, nn)
	}
	return l
}

// Release returns the evaluator's scratch to the pools. The caller must not
// use l (or the array from Vals) afterwards.
func (l *Lazy) Release() {
	l.B = nil
	ReleaseField(l.vals)
	l.vals = nil
	lazyPool.Put(l)
}

// Node returns λ2 at node (i,j,k), computing it on first access.
func (l *Lazy) Node(i, j, k int) float64 {
	idx := l.B.Index(i, j, k)
	if !l.done[idx] {
		l.vals[idx] = float32(nodeLambda2Fast(l.B, i, j, k))
		l.done[idx] = true
		l.n++
	}
	return float64(l.vals[idx])
}

// EnsureCell computes λ2 at the 8 corners of cell (ci,cj,ck).
func (l *Lazy) EnsureCell(ci, cj, ck int) {
	for dk := 0; dk <= 1; dk++ {
		for dj := 0; dj <= 1; dj++ {
			for di := 0; di <= 1; di++ {
				l.Node(ci+di, cj+dj, ck+dk)
			}
		}
	}
}

// Vals exposes the backing array for the triangulator; only nodes ensured
// via Node or EnsureCell hold valid values.
func (l *Lazy) Vals() []float32 { return l.vals }

// ComputedNodes reports how many nodes have been evaluated so far — the
// cost-model currency of the streamed command.
func (l *Lazy) ComputedNodes() int { return l.n }

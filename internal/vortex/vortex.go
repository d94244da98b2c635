// Package vortex implements the λ2 vortex criterion (Jeong & Hussain) on
// curvilinear blocks: the velocity-gradient tensor J is split into strain S
// and rotation Q, and λ2 is the middle eigenvalue of S²+Q². Vortex regions
// are where λ2 < 0; extraction triangulates the λ2 ≈ 0 isosurface.
//
// Two evaluation modes mirror the paper's two commands: Compute fills the
// whole scalar field up front (VortexDataMan), while Lazy evaluates node rows
// on demand so the streamed command can emit active cells long before the
// full field exists (StreamedVortex, §6.3). Both run the same row kernel.
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

// ComputeInto evaluates λ2 at every node into the caller-provided array
// (length NumNodes), leaving the block untouched — the form the commands
// use, since cached blocks are shared across workers and must not be
// mutated. It is the slab-blocked sweep: lambda2Row over every (j,k) node
// row, with one pooled row of gradient scratch for the whole block. It
// returns the number of nodes computed.
func ComputeInto(b *grid.Block, out []float32) int {
	r := grid.AcquireJacRow(b.NI)
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			lambda2Row(b, j, k, r, out)
		}
	}
	grid.ReleaseJacRow(r)
	return b.NumNodes()
}

// lambda2Row is the one λ2 row kernel both schedules share — the eager
// sweep (ComputeInto) and the lazy evaluator (Lazy): the velocity gradient
// of every node (·, j, k) is evaluated into r by the flat-index row kernel,
// and each tensor feeds the specialized eigen-solve; singular nodes get the
// nonVortex stand-in. Results land in out at the row's node indices. Every
// float operation matches the per-node reference (nodeLambda2 in the
// tests), so the output is bit-identical (TestSlabDeterminism). r must be
// sized for b.NI nodes.
func lambda2Row(b *grid.Block, j, k int, r *grid.JacRow, out []float32) {
	b.VelocityGradientRow(j, k, r.Jac, r.OK)
	row := out[b.Index(0, j, k):][:b.NI]
	jac, ok := r.Jac, r.OK
	for i := range row {
		if !ok[i] {
			row[i] = float32(float64(nonVortex))
			continue
		}
		o := 9 * i
		row[i] = float32(mathx.Lambda2Jac(
			jac[o], jac[o+1], jac[o+2],
			jac[o+3], jac[o+4], jac[o+5],
			jac[o+6], jac[o+7], jac[o+8]))
	}
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

// Lazy evaluates λ2 on demand with memoization. The first request for any
// node of a (·, j, k) row computes the whole row through lambda2Row, the
// eager sweep's kernel, so the lazy values are the eager ones bit for bit
// and each node's gradient costs what it costs in the slab sweep. The
// backing array is laid out exactly like a block scalar field, so it can be
// handed to the isosurface triangulator directly once the relevant nodes
// are ensured.
type Lazy struct {
	B       *grid.Block
	vals    []float32
	done    []bool // per node: requested through Node
	rowDone []bool // per (j,k) row: vals holds the row's λ2
	row     grid.JacRow
	n       int
}

// lazyPool recycles Lazy evaluators (their done/rowDone arrays and row
// scratch) across blocks and requests; the vals array comes from the shared
// fieldPool, so the lazy path and ComputeInto reuse the same scratch across
// Release/re-acquire cycles instead of each holding a private copy.
var lazyPool sync.Pool

// NewLazy prepares a lazy evaluator for the block, reusing pooled scratch
// when it fits. Pair with Release when the block is done.
func NewLazy(b *grid.Block) *Lazy {
	l, _ := lazyPool.Get().(*Lazy)
	if l == nil {
		l = &Lazy{}
	}
	l.B = b
	l.n = 0
	l.vals = AcquireField(b.NumNodes())
	// vals needs no clearing: done and rowDone guard every read.
	l.done = clearedBools(l.done, b.NumNodes())
	l.rowDone = clearedBools(l.rowDone, b.NJ*b.NK)
	l.row.Fit(b.NI)
	return l
}

// clearedBools returns s resized to n elements, all false, reallocating
// only when its capacity is short.
func clearedBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Release returns the evaluator's scratch to the pools. The caller must not
// use l (or the array from Vals) afterwards.
func (l *Lazy) Release() {
	l.B = nil
	ReleaseField(l.vals)
	l.vals = nil
	lazyPool.Put(l)
}

// Node returns λ2 at node (i,j,k), computing its row on first access.
func (l *Lazy) Node(i, j, k int) float64 {
	idx := l.B.Index(i, j, k)
	if !l.done[idx] {
		if r := j + k*l.B.NJ; !l.rowDone[r] {
			lambda2Row(l.B, j, k, &l.row, l.vals)
			l.rowDone[r] = true
		}
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

// ComputedNodes reports how many distinct nodes have been requested so far
// — the cost-model currency of the streamed command. It counts nodes, not
// the rows computed for them, so the priced work is independent of the
// row schedule.
func (l *Lazy) ComputedNodes() int { return l.n }

package grid

import (
	"sort"

	"viracocha/internal/mathx"
)

// MultiBlock is one time step of a multi-block data set: an ordered set of
// blocks covering the simulation domain.
type MultiBlock struct {
	Dataset string
	Step    int
	Blocks  []*Block

	bounds  []AABB
	boundsV bool
}

// NewMultiBlock wraps blocks into a time-step container.
func NewMultiBlock(dataset string, step int, blocks []*Block) *MultiBlock {
	return &MultiBlock{Dataset: dataset, Step: step, Blocks: blocks}
}

// Bounds returns the union of all block bounding boxes.
func (m *MultiBlock) Bounds() AABB {
	m.ensureBounds()
	box := EmptyAABB()
	for _, b := range m.bounds {
		box = box.Union(b)
	}
	return box
}

func (m *MultiBlock) ensureBounds() {
	if m.boundsV {
		return
	}
	m.bounds = make([]AABB, len(m.Blocks))
	for i, b := range m.Blocks {
		m.bounds[i] = b.Bounds()
	}
	m.boundsV = true
}

// Locate finds the block and cell containing physical point p. hintBlock
// (when ≥ 0) and hintLoc warm-start the search with the previous position of
// a moving particle, the common case in pathline integration. The returned
// block index is -1 when no block contains p.
func (m *MultiBlock) Locate(p mathx.Vec3, hintBlock int, hintLoc *CellLoc) (int, CellLoc, bool) {
	m.ensureBounds()
	eps := 1e-9
	// Fast path: same block as last time.
	if hintBlock >= 0 && hintBlock < len(m.Blocks) && m.bounds[hintBlock].Contains(p, eps) {
		if loc, ok := m.Blocks[hintBlock].Locate(p, hintLoc); ok {
			return hintBlock, loc, true
		}
	}
	// Sort candidate blocks by bbox-centre distance so near blocks are tried
	// first; a point near block seams may pass the bbox test of several.
	type cand struct {
		i int
		d float64
	}
	var cands []cand
	for i := range m.Blocks {
		if i == hintBlock {
			continue
		}
		if m.bounds[i].Contains(p, eps) {
			cands = append(cands, cand{i, m.bounds[i].Center().Sub(p).Norm()})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	for _, c := range cands {
		if loc, ok := m.Blocks[c.i].Locate(p, nil); ok {
			return c.i, loc, true
		}
	}
	return -1, CellLoc{}, false
}

// VelocityAt evaluates velocity at p across block boundaries. The returned
// block index feeds the next call's hint and the Markov prefetcher's
// block-request trace.
func (m *MultiBlock) VelocityAt(p mathx.Vec3, hintBlock int, hintLoc *CellLoc) (mathx.Vec3, int, bool) {
	bi, loc, ok := m.Locate(p, hintBlock, hintLoc)
	if !ok {
		return mathx.Vec3{}, -1, false
	}
	if hintLoc != nil {
		*hintLoc = loc
	}
	b := m.Blocks[bi]
	return b.InterpVelocity(loc.CI, loc.CJ, loc.CK, loc.R, loc.S, loc.T), bi, true
}

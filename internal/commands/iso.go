// Package commands is Viracocha's topmost layer (paper §3): the actual
// post-processing algorithms, registered by name with the core runtime. It
// contains the paper's measured commands — SimpleIso/IsoDataMan/ViewerIso,
// SimpleVortex/VortexDataMan/StreamedVortex, SimplePathlines/
// PathlinesDataMan (§6.3) — plus a progressive multi-resolution isosurface
// from the future-work list (§9).
package commands

import (
	"sort"
	"sync"

	"viracocha/internal/core"
	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// Common parameters:
//
//	dataset  – data set name (required)
//	step     – time step (default 0)
//	field    – scalar field (default "pressure")
//	iso      – iso value (default 0)
//	workers  – work group size
//	granularity – triangles per streamed packet (streaming commands)
//	ex,ey,ez – viewpoint (ViewerIso)

// SimpleIso is the baseline: no data management at all — every block is read
// straight from storage, every run pays full I/O.
type SimpleIso struct{}

// Name implements core.Command.
func (SimpleIso) Name() string { return "iso.simple" }

// Run implements core.Command.
func (SimpleIso) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	field := ctx.Param("field", "pressure")
	isoVal := ctx.FloatParam("iso", 0)
	step := ctx.StepParam()
	out := &mesh.Mesh{}
	for _, blk := range ctx.AssignedBlocks(nil) {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		b, err := ctx.LoadRaw(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk})
		if err != nil {
			return nil, err
		}
		res := iso.ExtractBlock(b, field, isoVal, out)
		ctx.Charge(ctx.Model.IsoCost(res.CellsVisited, res.Triangles))
	}
	return out, nil
}

// IsoDataMan is the DMS-enabled isosurface command: blocks come through the
// two-tier cache, and the next assigned block is code-prefetched so I/O
// overlaps extraction (§4.2, user-initiated code prefetching).
type IsoDataMan struct{}

// Name implements core.Command.
func (IsoDataMan) Name() string { return "iso.dataman" }

// Run implements core.Command.
func (IsoDataMan) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	field := ctx.Param("field", "pressure")
	isoVal := ctx.FloatParam("iso", 0)
	step := ctx.StepParam()
	doPrefetch := ctx.IntParam("prefetch", 1) != 0
	blocks := ctx.AssignedBlocks(nil)
	out := &mesh.Mesh{}
	for i, blk := range blocks {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		if doPrefetch && i+1 < len(blocks) {
			next := grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blocks[i+1]}
			ctx.Prefetch(next)
		}
		b, err := ctx.Load(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk})
		if err != nil {
			return nil, err
		}
		res := iso.ExtractBlock(b, field, isoVal, out)
		ctx.Charge(ctx.Model.IsoCost(res.CellsVisited, res.Triangles))
		ctx.Progress(i+1, len(blocks))
	}
	return out, nil
}

// ViewerIso is the view-dependent streaming isosurface (§6.3): blocks are
// sorted front-to-back with respect to the viewpoint, each block's domain is
// organized in a BSP tree that is traversed view-dependently with
// empty-region pruning, and triangles are streamed to the client whenever
// the granularity budget fills. A full surface is still produced — only the
// *order* is view-dependent, since the user will inspect the result from
// other angles in the virtual environment.
type ViewerIso struct{}

// Name implements core.Command.
func (ViewerIso) Name() string { return "iso.viewer" }

// Run implements core.Command.
func (ViewerIso) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	field := ctx.Param("field", "pressure")
	isoVal := ctx.FloatParam("iso", 0)
	step := ctx.StepParam()
	granularity := ctx.IntParam("granularity", 2000)
	eye := mathx.Vec3{
		X: ctx.FloatParam("ex", 0),
		Y: ctx.FloatParam("ey", 0),
		Z: ctx.FloatParam("ez", 0),
	}
	cachedTree := ctx.CachesTrees()
	journaled := ctx.Journaling()
	order, releaseOrder := frontToBackOrder(ctx, step, eye)
	pending := mesh.Acquire()
	var ex *iso.Extractor // rebound per block, invalidated on flush
	curBlock := -1        // block being extracted, for journal-mode tagging
	flush := func(force bool) error {
		if pending.NumTriangles() == 0 {
			return nil
		}
		if !force && pending.NumTriangles() < granularity {
			return nil
		}
		// In journal mode flushes also fall on block boundaries (below), so
		// every packet holds one block's triangles and carries its tag — the
		// client reassembles them in canonical block order. Outside it the
		// packet goes out untagged.
		err := ctx.StreamBlock(curBlock, pending)
		// The packet is encoded; refill the same allocation and drop the
		// vertex cache that indexed into it.
		pending.Reset()
		if ex != nil {
			ex.Rebind(pending)
		}
		return err
	}
	doPrefetch := ctx.IntParam("prefetch", 1) != 0
	blocks := ctx.SpanBlocks(order)
	releaseOrder()
	for i, blk := range blocks {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		curBlock = blk
		if doPrefetch && i+1 < len(blocks) {
			// OBL-style code prefetch of the next block in view order.
			next := grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blocks[i+1]}
			ctx.Prefetch(next)
		}
		b, err := ctx.Load(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk})
		if err != nil {
			return nil, err
		}
		vals, ok := b.Scalars[field]
		if !ok {
			ctx.BlockDone(blk)
			continue
		}
		// The per-block BSP tree: rebuilt (and priced) every run on the
		// baseline path, served from the derived-entity cache otherwise — the
		// tree depends on neither viewpoint nor iso value.
		var tree *grid.BSPTree
		if cachedTree {
			tree = ctx.BSPTree(b, field)
		} else {
			tree = grid.BuildBSP(b, field)
			ctx.Charge(ctx.Model.BSPCost(b.NumCells()))
		}
		// One extractor across all BSP leaves of the block, so vertices on
		// leaf boundaries weld too (until a flush restarts the packet).
		if ex == nil {
			ex = iso.NewExtractor(b, pending)
		} else {
			ex.Reset(b, pending)
		}
		var streamErr error
		tree.VisitFrontToBack(eye, isoVal, func(r grid.CellRange) bool {
			res := ex.Range(vals, isoVal, r)
			ctx.Charge(ctx.Model.IsoCost(res.CellsVisited, res.Triangles))
			if err := flush(false); err != nil {
				streamErr = err
				return false
			}
			return true
		})
		if streamErr != nil {
			return nil, streamErr
		}
		if journaled {
			// Close out the block: its remaining triangles go out as its
			// own tagged packet, then the watermark advances. A crash after
			// this point never recomputes the block.
			if err := flush(true); err != nil {
				return nil, err
			}
			ctx.BlockDone(blk)
		}
	}
	err := flush(true)
	if ex != nil {
		ex.Close()
	}
	mesh.Release(pending)
	if err != nil {
		return nil, err
	}
	return nil, nil // everything streamed
}

// orderScratch is the reusable order/dist scratch of frontToBackOrder;
// pooling it keeps the per-request sort allocation-free on the hot
// interaction path (a viewer re-sorts on every camera move).
type orderScratch struct {
	order []int
	dist  []float64
}

var orderPool = sync.Pool{New: func() any { return &orderScratch{} }}

// blockOrderInto sorts order (a permutation of block indices) by dist
// ascending. Equal distances tie-break on the block index itself, so the
// result is a deterministic function of the distances — sort.Slice is not
// stable, and symmetric datasets produce exact ties.
func blockOrderInto(order []int, dist []float64) {
	sort.Slice(order, func(a, b int) bool {
		da, db := dist[order[a]], dist[order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
}

// frontToBackOrder sorts block indices by bounding-box distance from the
// eye using the data set's analytic metadata — no block loads needed. The
// returned slice is pooled scratch: call release once it is no longer read.
func frontToBackOrder(ctx *core.Ctx, step int, eye mathx.Vec3) (order []int, release func()) {
	n := ctx.Dataset.Blocks
	s := orderPool.Get().(*orderScratch)
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.dist = make([]float64, n)
	}
	order = s.order[:n]
	dist := s.dist[:n]
	for i := 0; i < n; i++ {
		order[i] = i
		dist[i] = ctx.Dataset.Bounds(step, i).Center().Sub(eye).Norm()
	}
	blockOrderInto(order, dist)
	return order, func() { orderPool.Put(s) }
}

// ProgressiveIso implements the future-work multi-resolution streaming
// scheme (§5.3): it extracts the surface on coarsened grids first, streaming
// each level as soon as it exists, so the client sees a rough surface long
// before the full-resolution result. Levels are recomputed rather than
// incrementally refined — the paper notes truly progressive refinement
// operators are future work; the coarse levels are cached as their own data
// items by the DMS naming service.
type ProgressiveIso struct{}

// Name implements core.Command.
func (ProgressiveIso) Name() string { return "iso.progressive" }

// Run implements core.Command. With incremental=1 the refinement levels are
// computed truly progressively (paper §5.3's future-work scheme): each
// level only rescans the neighbourhood of the previous level's surface
// instead of the whole block.
func (ProgressiveIso) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	if ctx.IntParam("incremental", 0) != 0 {
		return progressiveIncremental(ctx)
	}
	field := ctx.Param("field", "pressure")
	isoVal := ctx.FloatParam("iso", 0)
	step := ctx.StepParam()
	maxLevel := ctx.IntParam("levels", 2)
	blocks := ctx.AssignedBlocks(nil)
	for level := maxLevel; level >= 0; level-- {
		levelMesh := &mesh.Mesh{}
		for _, blk := range blocks {
			b, err := ctx.LoadCoarse(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk}, level)
			if err != nil {
				return nil, err
			}
			if !b.HasScalar(field) {
				continue
			}
			res := iso.ExtractBlock(b, field, isoVal, levelMesh)
			ctx.Charge(ctx.Model.IsoCost(res.CellsVisited, res.Triangles))
		}
		if level > 0 {
			if err := ctx.StreamPartial(levelMesh); err != nil {
				return nil, err
			}
		} else {
			// The final level travels as the gathered result so the client
			// can distinguish the authoritative surface from previews.
			return levelMesh, nil
		}
	}
	return &mesh.Mesh{}, nil
}

// progressiveIncremental is the incremental-refinement body of
// ProgressiveIso: blocks are loaded at full resolution once, then refined
// level by level with per-block active-region propagation.
func progressiveIncremental(ctx *core.Ctx) (*mesh.Mesh, error) {
	field := ctx.Param("field", "pressure")
	isoVal := ctx.FloatParam("iso", 0)
	step := ctx.StepParam()
	maxLevel := ctx.IntParam("levels", 2)
	var refiners []*iso.ProgressiveBlock
	for _, blk := range ctx.AssignedBlocks(nil) {
		b, err := ctx.Load(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk})
		if err != nil {
			return nil, err
		}
		if !b.HasScalar(field) {
			continue
		}
		refiners = append(refiners, iso.NewProgressiveBlock(b, field, isoVal))
	}
	for level := maxLevel; level >= 0; level-- {
		levelMesh := &mesh.Mesh{}
		for _, pb := range refiners {
			m, st := pb.ExtractLevel(level)
			ctx.Charge(ctx.Model.IsoCost(st.CellsVisited, st.Triangles))
			levelMesh.Append(m)
		}
		if level > 0 {
			if err := ctx.StreamPartial(levelMesh); err != nil {
				return nil, err
			}
		} else {
			return levelMesh, nil
		}
	}
	return &mesh.Mesh{}, nil
}

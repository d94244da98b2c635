package commands

import (
	"viracocha/internal/core"
	"viracocha/internal/dms"
	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/mesh"
	"viracocha/internal/vortex"
)

// Vortex parameters: "lambda2" is the iso threshold (≈ 0, slightly negative
// in practice, §1.1); "cellbatch" is the streamed command's active-cell list
// length (§6.3).

// l2Field is the entity field name under which derived λ2 data (scalar
// fields, min/max indexes) is cached in the DMS.
const l2Field = "lambda2"

// lambda2Values returns the block's λ2 scalar field. With caching enabled it
// is served from the DMS derived-entity cache when hot, computed — and
// priced — and offered to the cache otherwise; a user re-querying the vortex
// threshold then reuses the field instead of recomputing the eigenvalue
// sweep. release must be called when the caller is done with vals: it
// returns pooled scratch only when the field is not cache-owned.
func lambda2Values(ctx *core.Ctx, b *grid.Block, cached bool) (vals []float32, release func()) {
	if cached {
		name := dms.Lambda2Item(b.ID)
		if e, ok := ctx.Proxy().GetDerived(name); ok {
			if f, ok := e.(*grid.ScalarField); ok {
				return f.Vals, func() {}
			}
		}
		buf := vortex.AcquireField(b.NumNodes())
		ctx.Charge(ctx.Cost.Lambda2Cost(vortex.ComputeInto(b, buf)))
		if ctx.Proxy().PutDerived(name, &grid.ScalarField{Name: l2Field, Vals: buf}) {
			// The cache owns the array now; it must not return to the pool.
			return buf, func() {}
		}
		return buf, func() { vortex.ReleaseField(buf) }
	}
	buf := vortex.AcquireField(b.NumNodes())
	ctx.Charge(ctx.Cost.Lambda2Cost(vortex.ComputeInto(b, buf)))
	return buf, func() { vortex.ReleaseField(buf) }
}

// SimpleVortex is the λ2 baseline without data management: raw loads, full
// scalar-field computation, then isosurface extraction.
type SimpleVortex struct{}

// Name implements core.Command.
func (SimpleVortex) Name() string { return "vortex.simple" }

// Run implements core.Command.
func (SimpleVortex) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	thresh := ctx.FloatParam("lambda2", 0)
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
		vals := vortex.AcquireField(b.NumNodes())
		ctx.Charge(ctx.Cost.Lambda2Cost(vortex.ComputeInto(b, vals)))
		r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
		res := iso.ExtractRange(b, vals, thresh, r, out)
		vortex.ReleaseField(vals)
		ctx.Charge(ctx.Cost.IsoCost(res.CellsVisited, res.Triangles))
	}
	return out, nil
}

// VortexDataMan computes the complete λ2 field per block with DMS-managed
// loading and OBL-style code prefetching, then extracts the vortex surface;
// the result travels as one gathered package.
type VortexDataMan struct{}

// Name implements core.Command.
func (VortexDataMan) Name() string { return "vortex.dataman" }

// Run implements core.Command.
func (VortexDataMan) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	thresh := ctx.FloatParam("lambda2", 0)
	step := ctx.StepParam()
	doPrefetch := ctx.IntParam("prefetch", 1) != 0
	useIndex := ctx.IndexEnabled()
	if useIndex {
		ctx.RideAlong("", true) // the vortex-skip index lands with each prefetched block
	}
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
		bid := grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk}
		if useIndex {
			// A cached λ2 index whose range excludes the threshold proves
			// the block holds no vortex surface: skip the load, the λ2
			// recomputation and the scan in one O(1) test. Without one, a
			// cached gradient index can prove the same bound — it is
			// strictly weaker than the λ2 index, so it is only consulted
			// when that is missing.
			if idx, ok := ctx.CachedMinMax(bid, l2Field); ok {
				if idx.BlockExcludes(thresh) {
					ctx.Progress(i+1, len(blocks))
					continue
				}
			} else if gidx, ok := ctx.CachedGradIndex(bid); ok && gidx.BlockExcludesLambda2(thresh) {
				ctx.Progress(i+1, len(blocks))
				continue
			}
		}
		b, err := ctx.Load(bid)
		if err != nil {
			return nil, err
		}
		if useIndex {
			// One eigen-free gradient sweep — a third of the λ2 pipeline,
			// cached across every later threshold — can prove the loaded
			// block vortex-free before any eigenvalue is solved.
			if gidx := ctx.GradIndex(b); gidx.BlockExcludesLambda2(thresh) {
				ctx.Progress(i+1, len(blocks))
				continue
			}
		}
		// λ2 lives in a command-private (or cache-owned) array: the cache
		// stores raw blocks shared across workers, so they must not be
		// mutated.
		vals, release := lambda2Values(ctx, b, useIndex)
		r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
		var res iso.Result
		if useIndex {
			idx := ctx.MinMaxIndex(b, l2Field, vals)
			if !idx.BlockExcludes(thresh) {
				res = iso.ExtractRangeIndexed(b, vals, thresh, r, idx, out)
			}
		} else {
			res = iso.ExtractRange(b, vals, thresh, r, out)
		}
		release()
		ctx.Charge(ctx.Cost.IsoCost(res.CellsVisited, res.Triangles))
		ctx.Progress(i+1, len(blocks))
	}
	return out, nil
}

// StreamedVortex avoids computing the complete λ2 field first: it walks the
// cells one by one, evaluates λ2 lazily at their corners, collects active
// cells, and whenever the active-cell list reaches the user-specified
// length, triangulates the batch and streams it to the client (§6.3).
type StreamedVortex struct{}

// Name implements core.Command.
func (StreamedVortex) Name() string { return "vortex.streamed" }

// Run implements core.Command.
func (StreamedVortex) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	thresh := ctx.FloatParam("lambda2", 0)
	step := ctx.StepParam()
	batch := ctx.IntParam("cellbatch", 256)
	doPrefetch := ctx.IntParam("prefetch", 1) != 0
	useIndex := ctx.IndexEnabled()
	if useIndex {
		ctx.RideAlong("", true) // the vortex-skip index lands with each prefetched block
	}
	blocks := ctx.SpanBlocks(nil)
	for i, blk := range blocks {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		if doPrefetch && i+1 < len(blocks) {
			next := grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blocks[i+1]}
			ctx.Prefetch(next)
		}
		bid := grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk}
		// The lazy scan cannot afford to compute the full λ2 field just to
		// build an index, but it happily consumes one cached by an earlier
		// vortex.dataman run: λ2 is evaluated by the same per-node function
		// on both paths, so the index bounds the lazy values exactly. When
		// no λ2 index exists, the vortex-skip gradient index stands in: one
		// eigen-free sweep (a third of the λ2 pipeline, usually prefetched
		// as a ride-along and cached across thresholds) bounds λ2 from
		// below, which is the only direction brick skipping needs.
		var idx *grid.MinMaxIndex
		var gidx *grid.GradIndex
		if useIndex {
			if cached, ok := ctx.CachedMinMax(bid, l2Field); ok {
				if cached.BlockExcludes(thresh) {
					ctx.BlockDone(blk)
					continue // provably empty: skip the load entirely
				}
				idx = cached
			} else if g, ok := ctx.CachedGradIndex(bid); ok && g.BlockExcludesLambda2(thresh) {
				ctx.BlockDone(blk)
				continue
			}
		}
		b, err := ctx.Load(bid)
		if err != nil {
			return nil, err
		}
		if useIndex && idx == nil {
			gidx = ctx.GradIndex(b)
			if gidx.BlockExcludesLambda2(thresh) {
				ctx.BlockDone(blk)
				continue
			}
		}
		lazy := vortex.NewLazy(b)
		part := mesh.Acquire()
		ex := iso.NewExtractor(b, part)
		computed := 0
		visited := 0
		activeInBatch := 0
		batchTris := 0
		// charge prices the work since the last charge: λ2 evaluations, the
		// per-cell active tests, and any triangles just produced. Charging
		// in batches keeps the virtual-clock bookkeeping off the hot loop.
		charge := func() {
			ctx.Charge(ctx.Cost.LazyLambda2Cost(lazy.ComputedNodes() - computed))
			computed = lazy.ComputedNodes()
			ctx.Charge(ctx.Cost.IsoCost(visited, batchTris))
			visited = 0
		}
		emit := func() error {
			charge()
			activeInBatch, batchTris = 0, 0
			if part.NumTriangles() == 0 {
				return nil
			}
			// The lazy scan never crosses block boundaries within a packet,
			// so journal mode can tag every packet with its block as-is.
			err := ctx.StreamBlock(blk, part)
			// The packet is encoded; restart the same mesh for the next
			// batch and drop the edge cache that pointed into it.
			part.Reset()
			ex.Rebind(part)
			return err
		}
		for ck := 0; ck < b.NK-1; ck++ {
			for cj := 0; cj < b.NJ-1; cj++ {
				for ci := 0; ci < b.NI-1; {
					if idx != nil {
						// Jump over brick runs that provably hold no active
						// cell — their λ2 values are never even evaluated.
						if next := idx.SkipTo(ci, cj, ck, thresh, b.NI-1); next > ci {
							ci = next
							continue
						}
					} else if gidx != nil {
						// Same jump from the gradient bound: bricks whose
						// largest ‖J‖²_F stays under −thresh cannot hold a
						// corner with λ2 < thresh.
						if next := gidx.SkipToLambda2(ci, cj, ck, thresh, b.NI-1); next > ci {
							ci = next
							continue
						}
					}
					lazy.EnsureCell(ci, cj, ck)
					visited++
					// Fused test-and-extract, welded within the packet; an
					// active cell always produces triangles.
					if tris := ex.Cell(lazy.Vals(), thresh, ci, cj, ck); tris > 0 {
						batchTris += tris
						activeInBatch++
						if activeInBatch >= batch {
							if err := emit(); err != nil {
								return nil, err
							}
						}
					}
					ci++
				}
			}
		}
		err = emit()
		ex.Close()
		mesh.Release(part)
		lazy.Release()
		if err != nil {
			return nil, err
		}
		ctx.BlockDone(blk)
	}
	return nil, nil // everything streamed
}

package commands

import (
	"viracocha/internal/core"
	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/mesh"
	"viracocha/internal/vortex"
)

// Vortex parameters: "lambda2" is the iso threshold (≈ 0, slightly negative
// in practice, §1.1); "cellbatch" is the streamed command's active-cell list
// length (§6.3).

// extractVortex computes the block's complete λ2 field and extracts the
// vortex surface at thresh into out, pricing both. λ2 lives in a pooled
// command-private array: the cache stores raw blocks shared across workers,
// so they must not be mutated.
func extractVortex(ctx *core.Ctx, b *grid.Block, thresh float64, out *mesh.Mesh) {
	vals := vortex.AcquireField(b.NumNodes())
	ctx.Charge(ctx.Model.Lambda2Cost(vortex.ComputeInto(b, vals)))
	r := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
	res := iso.ExtractRange(b, vals, thresh, r, out)
	vortex.ReleaseField(vals)
	ctx.Charge(ctx.Model.IsoCost(res.CellsVisited, res.Triangles))
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
		extractVortex(ctx, b, thresh, out)
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
		extractVortex(ctx, b, thresh, out)
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
	blocks := ctx.SpanBlocks(nil)
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
			ctx.Charge(ctx.Model.LazyLambda2Cost(lazy.ComputedNodes() - computed))
			computed = lazy.ComputedNodes()
			ctx.Charge(ctx.Model.IsoCost(visited, batchTris))
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
				for ci := 0; ci < b.NI-1; ci++ {
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

package commands

import (
	"viracocha/internal/core"
	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/mesh"
	"viracocha/internal/tracer"
)

// IsoTimeSeries extracts the same isosurface over a range of time steps and
// streams one surface per step — the unsteady-flow animation loop that
// drives the paper's interest in caching across time levels ("a time-varying
// data set with uncached next time levels", §7.2). The DMS system
// prefetcher's file order wraps from the last block of a step to the first
// block of the next, so with OBL enabled the next time level is already
// arriving while the current one is triangulated.
//
// Parameters: step (first step, default 0), steps (count, default 4), plus
// the usual iso/field/prefetch. Each step's surface is streamed as one
// partial whose Seq is the step index; nothing is gathered at the master.
type IsoTimeSeries struct{}

// Name implements core.Command.
func (IsoTimeSeries) Name() string { return "iso.timeseries" }

// Run implements core.Command.
func (IsoTimeSeries) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	field := ctx.Param("field", "pressure")
	isoVal := ctx.FloatParam("iso", 0)
	first := ctx.StepParam()
	count := ctx.IntParam("steps", 4)
	if first+count > ctx.Dataset.Steps {
		count = ctx.Dataset.Steps - first
	}
	doPrefetch := ctx.IntParam("prefetch", 1) != 0
	for s := 0; s < count; s++ {
		step := first + s
		blocks := ctx.AssignedBlocks(nil)
		stepMesh := &mesh.Mesh{}
		for i, blk := range blocks {
			if doPrefetch {
				// Look ahead within the step, and across the step boundary
				// for the last block.
				if i+1 < len(blocks) {
					ctx.Prefetch(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blocks[i+1]})
				} else if s+1 < count {
					ctx.Prefetch(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step + 1, Block: blocks[0]})
				}
			}
			b, err := ctx.Load(grid.BlockID{Dataset: ctx.Dataset.Name, Step: step, Block: blk})
			if err != nil {
				return nil, err
			}
			res := iso.ExtractBlock(b, field, isoVal, stepMesh)
			ctx.Charge(ctx.Cost.IsoCost(res.CellsVisited, res.Triangles))
		}
		if err := ctx.StreamPartial(stepMesh); err != nil {
			return nil, err
		}
		ctx.Progress(s+1, count)
	}
	return nil, nil // every step was streamed
}

// Streamlines integrates steady streamlines through the frozen field of a
// single time step — the instantaneous companion of the pathline commands,
// useful when the user inspects one snapshot of an unsteady flow.
//
// Parameters: step, seeds/seedbox, duration (integration time, default
// stepdt·steps/4).
type Streamlines struct{}

// Name implements core.Command.
func (Streamlines) Name() string { return "streamlines" }

// Run implements core.Command.
func (Streamlines) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	stepDt := ctx.FloatParam("stepdt", 0.001)
	duration := ctx.FloatParam("duration", stepDt*float64(ctx.Dataset.Steps)/4)
	step := ctx.StepParam()
	seeds, err := seedCloud(ctx)
	if err != nil {
		return nil, err
	}
	lo, hi := core.AssignedSlice(len(seeds), ctx.Rank, ctx.GroupSize)
	out := &mesh.Mesh{}
	prov := dmsProvider{ctx}
	for _, seed := range seeds[lo:hi] {
		tr := tracer.New(prov, stepDt)
		path, err := tr.Streamline(seed, step, duration)
		if err != nil {
			return nil, err
		}
		ctx.Charge(ctx.Cost.TraceCost(path.Evals))
		for _, pt := range path.Points {
			out.AddVertex(pt.Pos)
			out.Values = append(out.Values, float32(pt.T))
		}
	}
	return out, nil
}

package commands

import (
	"fmt"
	"strconv"
	"strings"

	"viracocha/internal/core"
	"viracocha/internal/grid"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
	"viracocha/internal/tracer"
)

// Pathline parameters:
//
//	seeds    – number of seed particles (default 16)
//	seedbox  – "x0,y0,z0,x1,y1,z1"; defaults to the data set bounds of step 0
//	t0,t1    – physical start/end time (defaults 0 and (steps-1)·stepdt)
//	stepdt   – physical time between data-set steps (default 0.001 s)
//
// Seeds are split contiguously across the group: the static distribution
// whose load imbalance the paper's Figure 13 exhibits (every pathline has
// different computational effort and block needs).

// rawProvider backs the tracer with direct device loads (SimplePathlines).
type rawProvider struct{ ctx *core.Ctx }

func (p rawProvider) NumBlocks() int { return p.ctx.Dataset.Blocks }
func (p rawProvider) NumSteps() int  { return p.ctx.Dataset.Steps }
func (p rawProvider) Bounds(step, block int) grid.AABB {
	return p.ctx.Dataset.Bounds(step, block)
}
func (p rawProvider) Block(step, block int) (*grid.Block, error) {
	return p.ctx.LoadRaw(grid.BlockID{Dataset: p.ctx.Dataset.Name, Step: step, Block: block})
}

// dmsProvider backs the tracer with DMS loads (PathlinesDataMan); the
// proxy's system prefetcher (the Markov predictor in the experiments) sees
// the block request stream through Proxy.Get.
type dmsProvider struct{ ctx *core.Ctx }

func (p dmsProvider) NumBlocks() int { return p.ctx.Dataset.Blocks }
func (p dmsProvider) NumSteps() int  { return p.ctx.Dataset.Steps }
func (p dmsProvider) Bounds(step, block int) grid.AABB {
	return p.ctx.Dataset.Bounds(step, block)
}
func (p dmsProvider) Block(step, block int) (*grid.Block, error) {
	return p.ctx.Load(grid.BlockID{Dataset: p.ctx.Dataset.Name, Step: step, Block: block})
}

// tracePathlines runs this worker's share of the seed cloud and encodes the
// paths as a point mesh (positions + per-vertex time values). With
// distribution=dynamic, seeds are claimed one at a time from the
// scheduler's work queue instead of the static contiguous split, trading a
// round trip per seed for balance (§5.2).
func tracePathlines(ctx *core.Ctx, prov tracer.Provider) (*mesh.Mesh, error) {
	stepDt := ctx.FloatParam("stepdt", 0.001)
	t0 := ctx.FloatParam("t0", 0)
	t1 := ctx.FloatParam("t1", float64(ctx.Dataset.Steps-1)*stepDt)
	seeds, err := seedCloud(ctx)
	if err != nil {
		return nil, err
	}
	dynamic := ctx.Param("distribution", "static") == "dynamic"
	out := &mesh.Mesh{}
	traceOne := func(seed mathx.Vec3) error {
		tr := tracer.New(prov, stepDt)
		path, err := tr.Pathline(seed, t0, t1)
		if err != nil {
			return err
		}
		ctx.Charge(ctx.Model.TraceCost(path.Evals))
		for _, pt := range path.Points {
			out.AddVertex(pt.Pos)
			out.Values = append(out.Values, float32(pt.T))
		}
		return nil
	}
	if dynamic {
		for {
			if ctx.Cancelled() {
				return nil, core.ErrCancelled
			}
			i, ok := ctx.ClaimWork(len(seeds))
			if !ok {
				return out, nil
			}
			if err := traceOne(seeds[i]); err != nil {
				return nil, err
			}
		}
	}
	lo, hi := core.AssignedSlice(len(seeds), ctx.Rank, ctx.GroupSize)
	for _, seed := range seeds[lo:hi] {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		if err := traceOne(seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// seedCloud builds the deterministic seed cloud from the request params.
func seedCloud(ctx *core.Ctx) ([]mathx.Vec3, error) {
	n := ctx.IntParam("seeds", 16)
	var box grid.AABB
	if s := ctx.Param("seedbox", ""); s != "" {
		parts := strings.Split(s, ",")
		if len(parts) != 6 {
			return nil, fmt.Errorf("commands: seedbox wants 6 comma-separated floats, got %q", s)
		}
		var f [6]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("commands: bad seedbox component %q", p)
			}
			f[i] = v
		}
		box = grid.AABB{
			Min: mathx.Vec3{X: f[0], Y: f[1], Z: f[2]},
			Max: mathx.Vec3{X: f[3], Y: f[4], Z: f[5]},
		}
	} else {
		// Default: the step-0 domain, shrunk to keep seeds interior.
		box = grid.EmptyAABB()
		for b := 0; b < ctx.Dataset.Blocks; b++ {
			box = box.Union(ctx.Dataset.Bounds(0, b))
		}
		c := box.Center()
		box.Min = c.Add(box.Min.Sub(c).Scale(0.6))
		box.Max = c.Add(box.Max.Sub(c).Scale(0.6))
	}
	return tracer.SeedBox(box, n), nil
}

// SimplePathlines integrates the seed cloud with direct storage loads and no
// caching across traces: each pathline re-reads every block it touches.
type SimplePathlines struct{}

// Name implements core.Command.
func (SimplePathlines) Name() string { return "pathlines.simple" }

// Run implements core.Command.
func (SimplePathlines) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	return tracePathlines(ctx, rawProvider{ctx})
}

// PathlinesDataMan integrates the seed cloud through the DMS: blocks are
// cached across traces and workers, and the proxy's Markov prefetcher learns
// the irregular block-successor relation of time-dependent particle traces,
// where naive sequential prefetchers fail (§6.3, §7.3).
type PathlinesDataMan struct{}

// Name implements core.Command.
func (PathlinesDataMan) Name() string { return "pathlines.dataman" }

// Run implements core.Command.
func (PathlinesDataMan) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	return tracePathlines(ctx, dmsProvider{ctx})
}

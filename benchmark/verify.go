package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/mesh"
	"viracocha/internal/storage"
	"viracocha/internal/vortex"
)

// reference is what a request must return: computed once per distinct key by
// calling the kernel directly, single-threaded, over the step's blocks. Bytes
// are deliberately not compared — the arrival order of partials is the
// scheduler's business and a later change may reorder a mesh.
type reference struct {
	Tris int
	Area float64
}

// areaTolerance is the relative error allowed on Mesh.Area: the server sums
// triangles in another order than the reference.
const areaTolerance = 1e-6

// mismatch reports why a result differs from its reference ("" when it agrees).
func (ref reference) mismatch(tris int, area float64) string {
	if tris != ref.Tris {
		return fmt.Sprintf("%d triangles, want %d", tris, ref.Tris)
	}
	if d := math.Abs(area - ref.Area); d > areaTolerance*math.Abs(ref.Area) {
		return fmt.Sprintf("area %.9g, want %.9g", area, ref.Area)
	}
	return ""
}

// kernelCost is the direct timing of the kernels behind one reference: the
// bottom rung of the ladder and the iso / vortex layer metrics.
type kernelCost struct {
	Extract time.Duration // iso.ExtractBlock or iso.ExtractRange, Σ blocks
	Lambda2 time.Duration // vortex.ComputeInto, Σ blocks (shared by the step's keys)
	Cells   int
	Nodes   int
}

// stepBlocks reads every block of one time step from the data set's files.
func stepBlocks(data *dataSet, step int) ([]*grid.Block, error) {
	be := &storage.DirBackend{Root: data.Dir}
	blocks := make([]*grid.Block, data.Desc.Blocks)
	for b := range blocks {
		blk, _, err := be.Fetch(grid.BlockID{Dataset: data.Desc.Name, Step: step, Block: b})
		if err != nil {
			return nil, err
		}
		blocks[b] = blk
	}
	return blocks, nil
}

// extractReference runs the extraction kernel over blocks for one value.
// fields holds the λ2 field of every block for vortex commands and is nil
// for iso commands, which read the stored pressure field.
func extractReference(blocks []*grid.Block, fields [][]float32, value float64) (reference, time.Duration) {
	m := mesh.Acquire()
	defer mesh.Release(m)
	t0 := time.Now()
	for i, b := range blocks {
		if fields == nil {
			iso.ExtractBlock(b, "pressure", value, m)
			continue
		}
		full := grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
		iso.ExtractRange(b, fields[i], value, full, m)
	}
	d := time.Since(t0)
	return reference{Tris: m.NumTriangles(), Area: m.Area()}, d
}

// lambda2Fields evaluates λ2 on every block of a step.
func lambda2Fields(blocks []*grid.Block) ([][]float32, time.Duration) {
	fields := make([][]float32, len(blocks))
	t0 := time.Now()
	for i, b := range blocks {
		fields[i] = vortex.AcquireField(b.NumNodes())
		vortex.ComputeInto(b, fields[i])
	}
	return fields, time.Since(t0)
}

// verifier caches one reference per distinct request key.
type verifier struct {
	data  *dataSet
	refs  map[string]reference
	costs map[string]kernelCost
}

func newVerifier(data *dataSet) *verifier {
	return &verifier{data: data, refs: map[string]reference{}, costs: map[string]kernelCost{}}
}

// prepare computes the references reqs still lack, one time step at a time
// so that only one step's blocks are in memory.
func (v *verifier) prepare(reqs []request) error {
	bySteps := map[int][]request{}
	for _, r := range reqs {
		if _, ok := v.refs[r.key()]; !ok {
			v.refs[r.key()] = reference{} // claimed; filled below
			bySteps[r.Step] = append(bySteps[r.Step], r)
		}
	}
	steps := make([]int, 0, len(bySteps))
	for s := range bySteps {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	for _, s := range steps {
		blocks, err := stepBlocks(v.data, s)
		if err != nil {
			return err
		}
		var cost kernelCost
		for _, b := range blocks {
			cost.Cells += b.NumCells()
			cost.Nodes += b.NumNodes()
		}
		var fields [][]float32
		if bySteps[s][0].Command == "vortex.streamed" {
			fields, cost.Lambda2 = lambda2Fields(blocks)
		}
		for _, r := range bySteps[s] {
			v.refs[r.key()], cost.Extract = extractReference(blocks, fields, r.Value)
			v.costs[r.key()] = cost
		}
		for _, f := range fields {
			vortex.ReleaseField(f)
		}
	}
	return nil
}

// check compares every successful sample with its reference and returns the
// number of failures — errors, rejections and mismatches alike — with the
// first few reasons.
func (v *verifier) check(reqs []request, samples []sample) (failed int, reasons []string) {
	note := func(s sample, why string) {
		failed++
		if len(reasons) < 5 {
			reasons = append(reasons, fmt.Sprintf("request %d (client %d, %s): %s", s.Index, s.Client, reqs[s.Index].key(), why))
		}
	}
	for _, s := range samples {
		if s.Err != nil {
			note(s, s.Err.Error())
			continue
		}
		if why := v.refs[reqs[s.Index].key()].mismatch(s.Tris, s.Area); why != "" {
			note(s, why)
		}
	}
	return failed, reasons
}

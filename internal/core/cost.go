package core

import "time"

// CostModel converts the real work an algorithm performed (counted in cells,
// triangles, nodes, evaluations) into charged virtual time. The constants
// are calibrated so the virtual timings land in the same regime as the
// paper's 900 MHz UltraSPARC III measurements; the extraction results
// themselves are computed for real on the synthetic data, the model only
// prices them. Under the real clock a zero model lets actual compute time
// stand on its own.
type CostModel struct {
	// PerIsoCell prices visiting one cell during isosurface extraction
	// (active-cell test plus bookkeeping).
	PerIsoCell time.Duration
	// PerTriangle prices emitting one isosurface triangle.
	PerTriangle time.Duration
	// PerLambda2Node prices one λ2 evaluation (gradient, S²+Q²,
	// eigenvalues) — the dominant floating-point cost of vortex extraction.
	PerLambda2Node time.Duration
	// PerBSPCell prices BSP tree construction and traversal per cell.
	PerBSPCell time.Duration
	// PerVelocityEval prices one velocity interpolation during particle
	// integration (locate + trilinear blend).
	PerVelocityEval time.Duration
	// LazyLambda2Factor scales PerLambda2Node for the streamed command's
	// cell-at-a-time evaluation, which touches nodes in a cache-unfriendly
	// order compared to the bulk sweep. 0 means 1.0 (no surcharge).
	LazyLambda2Factor float64
	// PerMergeTriangle prices gathering/merging one triangle at the master.
	PerMergeTriangle time.Duration
}

// DefaultCostModel returns constants calibrated against the paper's Engine
// and Propfan runtimes (§7): isosurface extraction is cheap per cell, λ2 is
// roughly an order of magnitude more expensive, and particle tracing is
// dominated by per-evaluation location costs.
func DefaultCostModel() CostModel {
	return CostModel{
		PerIsoCell:       550 * time.Nanosecond,
		PerTriangle:      2 * time.Microsecond,
		PerLambda2Node:   5500 * time.Nanosecond,
		PerBSPCell:       300 * time.Nanosecond,
		PerVelocityEval:  9 * time.Microsecond,
		PerMergeTriangle: 600 * time.Nanosecond,
	}
}

// ZeroCostModel disables charging (real-clock runs where actual compute
// time is the measurement).
func ZeroCostModel() CostModel { return CostModel{} }

// IsoCost prices an extraction pass.
func (m CostModel) IsoCost(cellsVisited, triangles int) time.Duration {
	return time.Duration(cellsVisited)*m.PerIsoCell + time.Duration(triangles)*m.PerTriangle
}

// Lambda2Cost prices computing λ2 at n nodes.
func (m CostModel) Lambda2Cost(nodes int) time.Duration {
	return time.Duration(nodes) * m.PerLambda2Node
}

// LazyLambda2Cost prices n cell-at-a-time λ2 evaluations (streamed variant).
func (m CostModel) LazyLambda2Cost(nodes int) time.Duration {
	f := m.LazyLambda2Factor
	if f <= 0 {
		f = 1
	}
	return time.Duration(float64(m.Lambda2Cost(nodes)) * f)
}

// BSPCost prices building/traversing a BSP over n cells.
func (m CostModel) BSPCost(cells int) time.Duration {
	return time.Duration(cells) * m.PerBSPCell
}

// TraceCost prices a particle trace with n velocity evaluations.
func (m CostModel) TraceCost(evals int) time.Duration {
	return time.Duration(evals) * m.PerVelocityEval
}

// MergeCost prices merging n triangles at the master worker.
func (m CostModel) MergeCost(triangles int) time.Duration {
	return time.Duration(triangles) * m.PerMergeTriangle
}

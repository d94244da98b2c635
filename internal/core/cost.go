package core

import (
	"time"

	"viracocha/internal/dms"
)

// Model is the one price list of a runtime: it converts the real work an
// algorithm performed (counted in cells, triangles, nodes, evaluations), the
// messages on the fabric and the DMS read path into charged virtual time.
// The extraction results themselves are computed for real on the synthetic
// data; the model only prices them. Its zero value is the real clock's,
// where the work takes its own time and nothing is charged; Paper is the
// only other one.
type Model struct {
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
	// order compared to the bulk sweep.
	LazyLambda2Factor float64
	// PerMergeTriangle prices gathering/merging one triangle at the master.
	PerMergeTriangle time.Duration
	// NetLatency and NetBandwidth price a message on the
	// scheduler/worker/client interconnect.
	NetLatency   time.Duration
	NetBandwidth float64
	// Read prices the DMS read path; the runtime hands it to its DMS server.
	Read dms.Prices
}

// Paper returns the prices the recorded experiments run with, calibrated so
// the scale-2 synthetic grids land in the paper's runtime regimes on its
// 900 MHz UltraSPARC III (EXPERIMENTS.md, "Calibration"). The fabric is a
// 2004 interconnect's latency with the bandwidth set so result transfers
// cost what the paper's much larger extracted geometry cost on its network
// (Figure 15 puts SimpleIso's send share at ~1 % and IsoDataMan's at ~10 %);
// the read path is the paper's SMP node.
func Paper() Model {
	return Model{
		PerIsoCell:        140 * time.Microsecond,
		PerTriangle:       40 * time.Microsecond,
		PerLambda2Node:    400 * time.Microsecond,
		PerBSPCell:        185 * time.Microsecond,
		PerVelocityEval:   2900 * time.Microsecond,
		LazyLambda2Factor: 1.08,
		PerMergeTriangle:  4 * time.Microsecond,
		NetLatency:        200 * time.Microsecond,
		NetBandwidth:      1.2e6,
		Read: dms.Prices{
			DecideCost:         200 * time.Microsecond,
			NameCost:           200 * time.Microsecond,
			PeerLatency:        100 * time.Microsecond,
			PeerBandwidth:      400e6,
			LocalDiskBandwidth: 80e6,
		},
	}
}

// IsoCost prices an extraction pass.
func (m Model) IsoCost(cellsVisited, triangles int) time.Duration {
	return time.Duration(cellsVisited)*m.PerIsoCell + time.Duration(triangles)*m.PerTriangle
}

// Lambda2Cost prices computing λ2 at n nodes.
func (m Model) Lambda2Cost(nodes int) time.Duration {
	return time.Duration(nodes) * m.PerLambda2Node
}

// LazyLambda2Cost prices n cell-at-a-time λ2 evaluations (streamed variant).
func (m Model) LazyLambda2Cost(nodes int) time.Duration {
	return time.Duration(float64(m.Lambda2Cost(nodes)) * m.LazyLambda2Factor)
}

// BSPCost prices building/traversing a BSP over n cells.
func (m Model) BSPCost(cells int) time.Duration {
	return time.Duration(cells) * m.PerBSPCell
}

// TraceCost prices a particle trace with n velocity evaluations.
func (m Model) TraceCost(evals int) time.Duration {
	return time.Duration(evals) * m.PerVelocityEval
}

// MergeCost prices merging n triangles at the master worker.
func (m Model) MergeCost(triangles int) time.Duration {
	return time.Duration(triangles) * m.PerMergeTriangle
}

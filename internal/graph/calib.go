package graph

import "nscc/internal/sim"

// Calibration maps graph-kernel work to virtual CPU time on the same
// RS/6000-591-class node the other workloads assume. A superstep costs
// a per-vertex scan charge plus a per-in-edge fold charge; partitions
// of a skewed graph therefore genuinely cost different amounts, which
// is the load imbalance staleness tolerance rides over.
type Calibration struct {
	VertexCost sim.Duration // per owned vertex per superstep
	EdgeCost   sim.Duration // per folded in-edge per superstep

	// Load skew, one step per superstep, with the GA's defaults; each
	// partition draws its own through Skew.NewJitterer.
	sim.Skew
}

// DefaultCalibration returns the paper-scale constants.
func DefaultCalibration() Calibration {
	return Calibration{
		VertexCost: 80 * sim.Microsecond,
		EdgeCost:   20 * sim.Microsecond,
		Skew:       sim.Skew{JitterStd: 0.15, SlowProb: 0.015, SlowFactor: 2.5, SlowLen: 10},
	}
}

// StepCost is the unjittered virtual CPU time of one superstep over
// verts owned vertices folding edges in-edges.
func (c Calibration) StepCost(verts, edges int) sim.Duration {
	return sim.Duration(verts)*c.VertexCost + sim.Duration(edges)*c.EdgeCost
}

// StateBytes is the network payload of one published sub-vector
// update: 8 bytes per vertex value plus a small header.
func StateBytes(verts int) int { return 16 + 8*verts }

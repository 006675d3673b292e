package graph

import (
	"math"

	"nscc/internal/sim"
	"nscc/internal/xrand"
)

// Calibration maps graph-kernel work to virtual CPU time on the same
// RS/6000-591-class node the other workloads assume. A superstep costs
// a per-vertex scan charge plus a per-in-edge fold charge; partitions
// of a skewed graph therefore genuinely cost different amounts, which
// is the load imbalance staleness tolerance rides over.
type Calibration struct {
	VertexCost sim.Duration // per owned vertex per superstep
	EdgeCost   sim.Duration // per folded in-edge per superstep

	// Load skew, identical in structure to the GA's: a lognormal-ish
	// per-superstep jitter plus correlated slow patches (a competing
	// job slowing the node by SlowFactor for a geometric stretch of
	// supersteps with mean SlowLen, entered with probability SlowProb).
	JitterStd  float64
	SlowProb   float64
	SlowFactor float64
	SlowLen    float64
}

// DefaultCalibration returns the paper-scale constants.
func DefaultCalibration() Calibration {
	return Calibration{
		VertexCost: 80 * sim.Microsecond,
		EdgeCost:   20 * sim.Microsecond,
		JitterStd:  0.15,
		SlowProb:   0.015,
		SlowFactor: 2.5,
		SlowLen:    10,
	}
}

// StepCost is the unjittered virtual CPU time of one superstep over
// verts owned vertices folding edges in-edges.
func (c Calibration) StepCost(verts, edges int) sim.Duration {
	return sim.Duration(verts)*c.VertexCost + sim.Duration(edges)*c.EdgeCost
}

// jitterer draws per-superstep load-skew factors with patch
// correlation — one per partition, fed by that partition's process rng,
// mirroring the GA's Jitterer.
type jitterer struct {
	c        Calibration
	rng      *xrand.Rand
	slowLeft int
}

func newJitterer(c Calibration, rng *xrand.Rand) *jitterer {
	return &jitterer{c: c, rng: rng}
}

// next returns the multiplicative cost factor for the next superstep.
func (j *jitterer) next() float64 {
	f := 1 + math.Abs(j.rng.NormFloat64())*j.c.JitterStd
	if j.slowLeft > 0 {
		j.slowLeft--
		f *= j.c.SlowFactor
	} else if j.c.SlowProb > 0 && j.rng.Float64() < j.c.SlowProb {
		if j.c.SlowLen > 1 {
			for j.rng.Float64() > 1/j.c.SlowLen {
				j.slowLeft++
			}
		}
		f *= j.c.SlowFactor
	}
	return f
}

// StateBytes is the network payload of one published sub-vector
// update: 8 bytes per vertex value plus a small header.
func StateBytes(verts int) int { return 16 + 8*verts }

package bayes

import (
	"math"

	"nscc/internal/metrics"
	"nscc/internal/sim"
	"nscc/internal/xrand"
)

// Calibration maps sampling work to virtual CPU time on the paper's
// RS/6000-591 nodes. Table 2 reports ~11 s uniprocessor inference for
// the 54-node nets and 3.15 s for Hailfinder; a per-node-draw cost of a
// few microseconds with evidence-rejection overhead lands in that
// regime.
type Calibration struct {
	PerNodeSample   sim.Duration // drawing one node's value in one sample
	PerIterOverhead sim.Duration // loop/bookkeeping per sampling iteration

	// Load skew, one step per sampling iteration; the serial and
	// parallel runners all draw it through Skew.NewJitterer, so they
	// see the same skew process. Long, rare patches are what let one
	// processor genuinely stray ahead of a stalled peer: the regime
	// where unbounded asynchrony pays long rollback replays and
	// Global_Read's age bound earns its keep.
	sim.Skew
}

// DefaultCalibration returns paper-scale constants.
func DefaultCalibration() Calibration {
	return Calibration{
		PerNodeSample:   25 * sim.Microsecond,
		PerIterOverhead: 25 * sim.Microsecond,
		Skew:            sim.Skew{JitterStd: 0.15, SlowProb: 0.002, SlowFactor: 2.5, SlowLen: 200},
	}
}

// IterCost is the pre-jitter virtual CPU time of sampling nodes node
// values in one iteration.
func (c Calibration) IterCost(nodes int) sim.Duration {
	return sim.Duration(nodes)*c.PerNodeSample + c.PerIterOverhead
}

// SerialResult reports a sequential logic-sampling run.
type SerialResult struct {
	Prob      float64 // estimated P(query | evidence)
	HalfWidth float64 // achieved 90% CI half-width
	Iters     int64   // raw sampling iterations
	Accepted  int64   // samples agreeing with the evidence
	Time      sim.Duration
	Converged bool // reached the precision before maxIters
}

// checkEvery is how often (in iterations) the stopping rule is
// evaluated.
const checkEvery = 200

// InferSerial estimates the query probability by logic sampling until
// the 90 % confidence interval's half-width reaches prec (the paper
// stops at ±0.01), or maxIters raw samples. Deterministic in seed.
func InferSerial(bn *Network, q Query, prec float64, seed int64, calib Calibration, maxIters int64) SerialResult {
	rng := xrand.New(seed)
	jit := calib.NewJitterer(rng)
	l := newLUT(bn, q)
	values := make([]int, bn.N())
	var res SerialResult
	var hits int64
	iterCost := calib.IterCost(bn.N()).Seconds()
	for res.Iters < maxIters {
		l.sampleInto(values, rng)
		res.Iters++
		res.Time += sim.DurationOf(iterCost * jit.Next())
		if l.matches(values) {
			res.Accepted++
			if values[q.Node] == q.State {
				hits++
			}
		}
		if res.Iters%checkEvery == 0 && res.Accepted >= 2 {
			p := float64(hits) / float64(res.Accepted)
			if metrics.ProportionCI90HalfWidth(p, int(res.Accepted)) <= prec {
				res.Converged = true
				break
			}
		}
	}
	if res.Accepted > 0 {
		res.Prob = float64(hits) / float64(res.Accepted)
		res.HalfWidth = metrics.ProportionCI90HalfWidth(res.Prob, int(res.Accepted))
	} else {
		res.HalfWidth = math.Inf(1)
	}
	return res
}

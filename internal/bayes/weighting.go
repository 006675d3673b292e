package bayes

import (
	"math"

	"nscc/internal/metrics"
	"nscc/internal/sim"
	"nscc/internal/xrand"
)

// Likelihood weighting is the other classical approximate-inference
// algorithm in the logic-sampling family (Pearl [15] discusses both):
// instead of rejecting samples that contradict the evidence, evidence
// nodes are clamped to their observed values and each sample is
// weighted by the likelihood of that evidence under the sampled
// parents. Every sample contributes, so convergence under unlikely
// evidence is far faster than rejection sampling's. The repository
// includes it as the natural serial-baseline extension: the paper's
// parallel machinery (interface exchange, gambling, rollback) applies
// to it unchanged, since only the per-node sampling rule differs.

// LWResult reports a likelihood-weighting run.
type LWResult struct {
	Prob      float64
	HalfWidth float64 // 90% CI using the effective sample size
	Iters     int64
	EffN      float64 // Kish effective sample size of the weights
	Time      sim.Duration
	Converged bool
}

// InferSerialLW estimates the query probability by likelihood weighting
// until the 90% CI half-width (computed on the Kish effective sample
// size) reaches prec, or maxIters samples. Deterministic in seed.
func InferSerialLW(bn *Network, q Query, prec float64, seed int64, calib Calibration, maxIters int64) LWResult {
	rng := xrand.New(seed)
	jit := calib.NewJitterer(rng)
	l := newLUT(bn, q)
	values := make([]int, bn.N())
	var res LWResult
	var wSum, w2Sum, hitSum float64
	iterCost := calib.IterCost(bn.N()).Seconds()
	for res.Iters < maxIters {
		w := l.sampleWeighted(values, rng)
		res.Iters++
		res.Time += sim.DurationOf(iterCost * jit.Next())
		wSum += w
		w2Sum += w * w
		if values[q.Node] == q.State {
			hitSum += w
		}
		if res.Iters%checkEvery == 0 && wSum > 0 && w2Sum > 0 {
			p := hitSum / wSum
			effN := wSum * wSum / w2Sum
			if metrics.ProportionCI90HalfWidth(p, int(effN)) <= prec {
				res.Converged = true
				break
			}
		}
	}
	if wSum > 0 {
		res.Prob = hitSum / wSum
		res.EffN = wSum * wSum / w2Sum
		res.HalfWidth = metrics.ProportionCI90HalfWidth(res.Prob, int(res.EffN))
	} else {
		res.HalfWidth = math.Inf(1)
	}
	return res
}

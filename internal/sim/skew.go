package sim

import (
	"math"

	"nscc/internal/xrand"
)

// Skew is a node's load skew (§2.1: "a few lightly loaded nodes may run
// ahead... heavily loaded nodes are slow in finishing their
// iterations"). Each step's compute cost is multiplied by a
// lognormal-ish jitter, 1 + |N(0,1)|·JitterStd; in addition the node
// enters slow patches, a competing job or daemon that slows it by
// SlowFactor for a stretch of steps (geometric, mean SlowLen), starting
// with probability SlowProb per step. Correlated patches are what make
// nodes genuinely drift apart: the load skew that staleness tolerance
// rides over and barriers amplify. Each workload's Calibration embeds a
// Skew with its own defaults.
type Skew struct {
	JitterStd  float64
	SlowProb   float64
	SlowFactor float64
	SlowLen    float64
}

// Jitterer draws one node's per-step skew factors.
type Jitterer struct {
	s        Skew
	rng      *xrand.Rand
	slowLeft int
}

// NewJitterer returns a skew source fed by rng, the node's process
// stream in a parallel run.
func (s Skew) NewJitterer(rng *xrand.Rand) *Jitterer {
	return &Jitterer{s: s, rng: rng}
}

// Next returns the multiplicative cost factor for the next step.
func (j *Jitterer) Next() float64 {
	f := 1 + math.Abs(j.rng.NormFloat64())*j.s.JitterStd
	if j.slowLeft > 0 {
		j.slowLeft--
		f *= j.s.SlowFactor
	} else if j.s.SlowProb > 0 && j.rng.Float64() < j.s.SlowProb {
		// Geometric patch length with mean SlowLen.
		if j.s.SlowLen > 1 {
			for j.rng.Float64() > 1/j.s.SlowLen {
				j.slowLeft++
			}
		}
		f *= j.s.SlowFactor
	}
	return f
}

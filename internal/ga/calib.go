package ga

import (
	"nscc/internal/ga/functions"
	"nscc/internal/sim"
	"nscc/internal/xrand"
)

// Calibration maps GA work to virtual CPU time on an RS/6000-591-class
// node (77 MHz, §4.1). The absolute values matter less than the
// resulting communication-to-computation ratio: DeJong-scale objective
// functions are cheap, so an island GA broadcasting N/2 individuals per
// generation over a 10 Mbps Ethernet is communication-hungry — exactly
// the regime the paper studies.
type Calibration struct {
	EvalBase    sim.Duration // fixed cost per objective evaluation
	EvalPerVar  sim.Duration // additional cost per decision variable
	GenPerIndiv sim.Duration // selection/copy overhead per individual per generation

	// Load skew (§2.1: "a few lightly loaded nodes may run ahead...
	// heavily loaded nodes are slow in finishing their iterations").
	// Each generation's compute cost is multiplied by a lognormal-ish
	// jitter; in addition, nodes enter *slow patches* — a competing job
	// or daemon that slows the node by SlowFactor for a stretch of
	// generations (geometric, mean SlowLen), starting with probability
	// SlowProb per generation. Correlated patches are what make nodes
	// genuinely drift apart: this is the load skew that staleness
	// tolerance (age > 0) rides over and barriers amplify.
	JitterStd  float64
	SlowProb   float64
	SlowFactor float64
	SlowLen    float64
}

// DefaultCalibration returns the paper-scale constants.
func DefaultCalibration() Calibration {
	return Calibration{
		EvalBase:    40 * sim.Microsecond,
		EvalPerVar:  3 * sim.Microsecond,
		GenPerIndiv: 20 * sim.Microsecond,
		JitterStd:   0.15,
		SlowProb:    0.015,
		SlowFactor:  2.5,
		SlowLen:     10,
	}
}

// Jitterer draws per-generation load-skew factors with patch
// correlation. One Jitterer per node, fed by that node's rng.
type Jitterer struct {
	c        Calibration
	rng      *xrand.Rand
	slowLeft int
}

// NewJitterer returns a skew source for one node.
func NewJitterer(c Calibration, rng *xrand.Rand) *Jitterer {
	return &Jitterer{c: c, rng: rng}
}

// Next returns the multiplicative cost factor for the next generation.
func (j *Jitterer) Next() float64 {
	f := 1 + abs(j.rng.NormFloat64())*j.c.JitterStd
	if j.slowLeft > 0 {
		j.slowLeft--
		f *= j.c.SlowFactor
	} else if j.c.SlowProb > 0 && j.rng.Float64() < j.c.SlowProb {
		// Geometric patch length with mean SlowLen.
		if j.c.SlowLen > 1 {
			for j.rng.Float64() > 1/j.c.SlowLen {
				j.slowLeft++
			}
		}
		f *= j.c.SlowFactor
	}
	return f
}

// InSlowPatch reports whether the node is currently inside a patch.
func (j *Jitterer) InSlowPatch() bool { return j.slowLeft > 0 }

// EvalCost is the virtual CPU time of one objective evaluation.
func (c Calibration) EvalCost(fn *functions.Function) sim.Duration {
	return c.EvalBase + sim.Duration(fn.Vars)*c.EvalPerVar
}

// GenCost is the virtual CPU time of one generation that computed evals
// objective evaluations on a deme of n individuals, before jitter.
func (c Calibration) GenCost(fn *functions.Function, evals, n int) sim.Duration {
	return sim.Duration(evals)*c.EvalCost(fn) + sim.Duration(n)*c.GenPerIndiv
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// MigrantBlockBytes is the network payload of a k-individual migrant
// block: packed chromosome bits plus an 8-byte fitness per individual,
// plus a small header.
func MigrantBlockBytes(fn *functions.Function, k int) int {
	return 16 + k*(fn.Bytes()+8)
}

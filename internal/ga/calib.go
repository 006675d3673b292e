package ga

import (
	"nscc/internal/ga/functions"
	"nscc/internal/sim"
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

	// Load skew, one step per generation; each node draws its own
	// through Skew.NewJitterer.
	sim.Skew
}

// DefaultCalibration returns the paper-scale constants.
func DefaultCalibration() Calibration {
	return Calibration{
		EvalBase:    40 * sim.Microsecond,
		EvalPerVar:  3 * sim.Microsecond,
		GenPerIndiv: 20 * sim.Microsecond,
		Skew:        sim.Skew{JitterStd: 0.15, SlowProb: 0.015, SlowFactor: 2.5, SlowLen: 10},
	}
}

// EvalCost is the virtual CPU time of one objective evaluation.
func (c Calibration) EvalCost(fn *functions.Function) sim.Duration {
	return c.EvalBase + sim.Duration(fn.Vars)*c.EvalPerVar
}

// GenCost is the virtual CPU time of one generation that computed evals
// objective evaluations on a deme of n individuals, before jitter.
func (c Calibration) GenCost(fn *functions.Function, evals, n int) sim.Duration {
	return sim.Duration(evals)*c.EvalCost(fn) + sim.Duration(n)*c.GenPerIndiv
}

// MigrantBlockBytes is the network payload of a k-individual migrant
// block: packed chromosome bits plus an 8-byte fitness per individual,
// plus a small header.
func MigrantBlockBytes(fn *functions.Function, k int) int {
	return 16 + k*(fn.Bytes()+8)
}

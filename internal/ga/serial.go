package ga

import (
	"nscc/internal/ga/functions"
	"nscc/internal/sim"
	"nscc/internal/xrand"
)

// SerialResult reports a sequential GA run.
type SerialResult struct {
	Gens         int64
	Evals        int64        // objective evaluations computed (after caching)
	Best         float64      // best objective value found
	Avg          float64      // final population mean objective
	Time         sim.Duration // modeled uniprocessor completion time
	OptimumFound bool
}

// RunSerial executes the optimized sequential GA: a single population of
// totalPop individuals (the parallel runs scale total population
// linearly with processors, §4.2.1, so the serial baseline uses the same
// total) run for gens generations with fitness caching. Virtual time
// models an RS/6000-class uniprocessor via calib, including the same
// load jitter the cluster nodes see.
func RunSerial(fn *functions.Function, par Params, totalPop int, gens int64, seed int64, calib Calibration) SerialResult {
	par.N = totalPop
	rng := xrand.New(seed)
	d := newDeme(fn, par, rng)
	jit := calib.NewJitterer(rng)

	var elapsed sim.Duration
	for g := int64(0); g < gens; g++ {
		evals := d.EvaluateAll()
		cost := calib.GenCost(fn, evals, d.Size())
		elapsed += sim.DurationOf(cost.Seconds() * jit.Next())
		d.NextGeneration()
	}
	d.EvaluateAll() // settle the final generation's fitness
	best := d.Best().Fit
	return SerialResult{
		Gens:         d.Gen(),
		Evals:        d.Evals(),
		Best:         best,
		Avg:          d.AvgFit(),
		Time:         elapsed,
		OptimumFound: fn.OptimumFound(best),
	}
}

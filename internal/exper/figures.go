package exper

import (
	"fmt"
	"io"

	"nscc/internal/bayes"
	"nscc/internal/ckpt"
	"nscc/internal/core"
	"nscc/internal/ga/functions"
	"nscc/internal/runner"
	"nscc/internal/sim"
)

// gaPoint is one (P, load) point of a GA sweep's grid.
type gaPoint struct {
	p    int
	load float64
}

// gaGrid runs opts.Trials seeded trials of every function at every
// point: one pooled cell per (point, function, trial), enumerated in
// that order, cached in the named sweep's checkpoint journal. It folds
// the trials into one row per (point, function), in the same order,
// and one row per point averaged over the functions. Aggregation runs
// in enumeration order, so the rows are the same at any worker count.
func gaGrid(opts Options, sweep string, points []gaPoint, fns []*functions.Function) (rows, avg []GARow, err error) {
	nFns, nTrials := len(fns), opts.Trials
	coords := func(i int) (gaPoint, *functions.Function, int) {
		return points[i/(nFns*nTrials)], fns[i/nTrials%nFns], i % nTrials
	}
	outs, err := runSweep(opts, sweep, len(points)*nFns*nTrials,
		func(i int) ckpt.Key {
			pt, fn, trial := coords(i)
			return gaCellKey(sweep, fn, pt.p, pt.load, trial, gaCellSeed(opts, trial, fn, pt.p))
		},
		func(i int) string {
			pt, fn, trial := coords(i)
			return fmt.Sprintf("%s F%d P=%d load=%.1fMbps trial=%d", sweep, fn.No, pt.p, pt.load/1e6, trial)
		},
		func(i int) (trialOut, error) {
			pt, fn, trial := coords(i)
			return gaTrial(fn, pt.p, gaCellSeed(opts, trial, fn, pt.p), opts, pt.load)
		})
	if err != nil {
		return nil, nil, err
	}
	for pi, pt := range points {
		all := newGASums()
		for fi, fn := range fns {
			acc := newGASums()
			for _, out := range outs[(pi*nFns+fi)*nTrials:][:nTrials] {
				acc.add(out)
				all.add(out)
			}
			rows = append(rows, acc.row(fn, pt.p, pt.load))
		}
		avg = append(avg, all.row(nil, pt.p, pt.load))
	}
	return rows, avg, nil
}

// bestCase returns the paper's best-case rows, function 1's, of a GA
// grid; there are none when F1 is not in the sweep.
func bestCase(rows []GARow) []GARow {
	var f1 []GARow
	for _, r := range rows {
		if r.Fn.No == 1 {
			f1 = append(f1, r)
		}
	}
	return f1
}

// Figure2Result holds the GA speedups on the unloaded network (Figure
// 2): the best case (function 1) and the 8-function average, per
// processor count.
type Figure2Result struct {
	BestCase []GARow // function 1, one row per P
	Average  []GARow // aggregated over all functions, one row per P
	PerFunc  []GARow // every (function, P) cell
}

// Figure2 reproduces Figure 2: speedups of the synchronous, fully
// asynchronous, and Global_Read (ages 0..30) island GAs over the serial
// program, on an unloaded network, for fns (nil = the full Table 1
// bed) and each processor count in opts.Procs.
func Figure2(w io.Writer, opts Options, fns []*functions.Function) (Figure2Result, error) {
	if fns == nil {
		fns = functions.All()
	}
	points := make([]gaPoint, len(opts.Procs))
	for i, p := range opts.Procs {
		points[i] = gaPoint{p: p}
	}
	rows, avg, err := gaGrid(opts, "figure2", points, fns)
	if err != nil {
		return Figure2Result{}, err
	}
	res := Figure2Result{BestCase: bestCase(rows), Average: avg, PerFunc: rows}
	if w != nil {
		printGARows(w, "Figure 2a: GA speedups, unloaded network, best case (function 1)", res.BestCase)
		printGARows(w, "Figure 2b: GA speedups, unloaded network, average over the test bed", res.Average)
	}
	return res, nil
}

// Figure4Loads are the paper's background-load levels (plus the
// unloaded reference point), in bits per second.
var Figure4Loads = []float64{0, 0.5e6, 1e6, 2e6}

// Figure4Result holds the loaded-network GA speedups (Figure 4):
// 4 processors plus a 2-node network loader at each load level.
type Figure4Result struct {
	BestCase []GARow // function 1, one row per load
	Average  []GARow // aggregated over fns, one row per load
}

// Figure4 reproduces Figure 4: GA speedups with 4 processors while the
// network loader offers 0.5, 1, and 2 Mbps of background traffic.
func Figure4(w io.Writer, opts Options, fns []*functions.Function) (Figure4Result, error) {
	if fns == nil {
		fns = functions.All()
	}
	points := make([]gaPoint, len(Figure4Loads))
	for i, load := range Figure4Loads {
		points[i] = gaPoint{p: 4, load: load} // the paper was restricted to a 4-node configuration
	}
	rows, avg, err := gaGrid(opts, "figure4", points, fns)
	if err != nil {
		return Figure4Result{}, err
	}
	res := Figure4Result{BestCase: bestCase(rows), Average: avg}
	if w != nil {
		printGALoadRows(w, "Figure 4a: GA speedups on the loaded network, best case (function 1)", res.BestCase)
		printGALoadRows(w, "Figure 4b: GA speedups on the loaded network, average", res.Average)
	}
	return res, nil
}

func printGALoadRows(w io.Writer, caption string, rows []GARow) {
	fmt.Fprintf(w, "%s\n", caption)
	fmt.Fprintf(w, "%-10s %5s", "load", "P")
	for _, v := range Variants() {
		fmt.Fprintf(w, " %8s", v)
	}
	fmt.Fprintf(w, " %8s %8s %9s %10s\n", "best-gr", "best-cmp", "improve", "warp(asy)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %5d", fmt.Sprintf("%.1fMbps", r.LoadBps/1e6), r.P)
		for _, v := range Variants() {
			fmt.Fprintf(w, " %8.2f", r.Speedup[v])
		}
		fmt.Fprintf(w, " %8.2f %8.2f %+8.0f%% %10.2f\n",
			r.BestGR, r.BestComp, (r.Improve-1)*100, r.Warp[Variant{Mode: core.Async}])
	}
}

// BayesRow is one network's entry in Figure 3.
type BayesRow struct {
	Net      *bayes.Network
	Speedup  map[Variant]float64
	BestGR   float64
	BestComp float64
	Improve  float64
	// Diagnostics averaged over trials.
	Rollbacks map[Variant]float64
	Iters     map[Variant]float64
}

// Figure3Result holds the 2-processor belief-network speedups.
type Figure3Result struct {
	Rows    []BayesRow
	Average BayesRow
}

// bayesProcs is Figure 3's processor count: the paper's belief-network
// runs use a 2-node configuration.
const bayesProcs = 2

// Figure3 reproduces Figure 3: speedups of the parallel logic-sampling
// implementations on a 2-node configuration for each Table 2 network,
// plus the average (ratio of summed serial times to summed parallel
// times). The variants are the GA's: the useful staleness range for
// logic sampling is iterations of pipeline lag, so the GA's age sweep
// applies directly.
func Figure3(w io.Writer, opts Options) (Figure3Result, error) {
	nets := bayes.Table2Networks()
	vs := Variants()
	var res Figure3Result

	// One job per (network, trial): the serial reference plus every
	// variant, all sharing the trial seed (the paired comparison the
	// paper's average metric needs). Fields are exported because this
	// is the payload the checkpoint journal caches as JSON.
	type bayesTrialOut struct {
		Serial    sim.Duration             `json:"serial"`
		Par       map[Variant]sim.Duration `json:"par"`
		Rollbacks map[Variant]int64        `json:"rollbacks"`
		Iters     map[Variant]int64        `json:"iters"`
	}
	nTrials := opts.Trials
	// The trial seed is shared across networks (not a collision: each
	// network is a distinct paired experiment on the stream).
	trialSeed := func(trial int) int64 { return runner.DeriveSeed(opts.Seed, seedStreamBayes, int64(trial)) }
	outs, err := runSweep(opts, "figure3", len(nets)*nTrials,
		func(i int) ckpt.Key {
			return bayesCellKey("figure3", nets[i/nTrials], i%nTrials, trialSeed(i%nTrials))
		},
		func(i int) string {
			return fmt.Sprintf("figure3 %s trial=%d", nets[i/nTrials].Name, i%nTrials)
		},
		func(i int) (bayesTrialOut, error) {
			bn, seed := nets[i/nTrials], trialSeed(i%nTrials)
			q := bayes.DefaultQuery(bn)
			out := bayesTrialOut{
				Par:       map[Variant]sim.Duration{},
				Rollbacks: map[Variant]int64{},
				Iters:     map[Variant]int64{},
			}
			serial := bayes.InferSerial(bn, q, opts.Precision, seed, bayes.DefaultCalibration(), bayesMaxIters(opts))
			out.Serial = serial.Time
			// Every variant runs on one partition and one set of
			// defaults, built once for the job.
			plan, err := bayes.NewPlan(bn, q, bayesProcs, seed)
			if err != nil {
				return out, err
			}
			for _, v := range vs {
				pr, err := plan.Run(opts.bayesConfig(bn, q, v, seed))
				if err != nil {
					return out, fmt.Errorf("%s: %w", v, err)
				}
				out.Par[v] += pr.Completion
				out.Rollbacks[v] = pr.Rollbacks
				out.Iters[v] = pr.Iters
			}
			return out, nil
		})
	if err != nil {
		return res, err
	}

	newRow := func(bn *bayes.Network) BayesRow {
		return BayesRow{Net: bn, Speedup: map[Variant]float64{}, Rollbacks: map[Variant]float64{}, Iters: map[Variant]float64{}}
	}
	totSerial := sim.Duration(0)
	totPar := map[Variant]sim.Duration{}
	for ni, bn := range nets {
		row := newRow(bn)
		serialSum := sim.Duration(0)
		parSum := map[Variant]sim.Duration{}
		for _, out := range outs[ni*nTrials:][:nTrials] {
			serialSum += out.Serial
			totSerial += out.Serial
			for _, v := range vs {
				parSum[v] += out.Par[v]
				totPar[v] += out.Par[v]
				row.Rollbacks[v] += float64(out.Rollbacks[v]) / float64(nTrials)
				row.Iters[v] += float64(out.Iters[v]) / float64(nTrials)
			}
		}
		for _, v := range vs {
			row.Speedup[v] = ratio(serialSum, parSum[v])
		}
		row.BestGR, row.BestComp, row.Improve = best(row.Speedup)
		res.Rows = append(res.Rows, row)
	}

	res.Average = newRow(nil)
	for _, v := range vs {
		res.Average.Speedup[v] = ratio(totSerial, totPar[v])
	}
	res.Average.BestGR, res.Average.BestComp, res.Average.Improve = best(res.Average.Speedup)

	if w != nil {
		printBayesRows(w, "Figure 3: belief-network speedups, 2 processors, unloaded network", res)
	}
	return res, nil
}

func bayesMaxIters(opts Options) int64 {
	// Enough head-room for the paper's +-0.01 target (which needs
	// ~6.8k accepted samples at worst) with rejection and the async
	// variant's wasted iterations.
	base := int64(40000)
	if opts.Precision > 0 {
		need := int64(0.7 / (opts.Precision * opts.Precision)) // ~ (1.645/2prec)^2
		if need*8 > base {
			base = need * 8
		}
	}
	return int64(float64(base) * opts.CapFactor / 4)
}

func printBayesRows(w io.Writer, caption string, res Figure3Result) {
	fmt.Fprintf(w, "%s\n", caption)
	fmt.Fprintf(w, "%-12s", "network")
	for _, v := range Variants() {
		fmt.Fprintf(w, " %8s", v)
	}
	fmt.Fprintf(w, " %8s %8s %9s\n", "best-gr", "best-cmp", "improve")
	for _, r := range append(append([]BayesRow{}, res.Rows...), res.Average) {
		name := "average"
		if r.Net != nil {
			name = r.Net.Name
		}
		fmt.Fprintf(w, "%-12s", name)
		for _, v := range Variants() {
			fmt.Fprintf(w, " %8.2f", r.Speedup[v])
		}
		fmt.Fprintf(w, " %8.2f %8.2f %+8.0f%%\n", r.BestGR, r.BestComp, (r.Improve-1)*100)
	}
}

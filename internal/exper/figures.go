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

// gaCellRef names one (P or load, function, trial) cell of a GA sweep.
// Drivers enumerate their full cell space up front, dispatch every cell
// on the worker pool, and then aggregate the collected trialOuts in
// enumeration order — the same order the old nested loops used — so
// results are independent of the worker count.
type gaCellRef struct {
	fn    *functions.Function
	p     int
	load  float64
	trial int
}

// runGACells executes one trial per cell on the pool, returning the
// outputs in cell order. ctx names the calling figure in errors and
// the sweep's checkpoint journal, where every cell result is cached.
func runGACells(ctx string, cells []gaCellRef, opts Options) ([]trialOut, error) {
	memo, err := opts.sweepMemo(ctx, func(i int) ckpt.Key {
		c := cells[i]
		return gaCellKey(ctx, c.fn, c.p, c.load, c.trial, gaCellSeed(opts, c.trial, c.fn, c.p))
	})
	if err != nil {
		return nil, err
	}
	opts.sweepStart(ctx, len(cells))
	outs, err := runner.MapMemo(len(cells), opts.Workers,
		func(i int) string {
			c := cells[i]
			return fmt.Sprintf("%s F%d P=%d load=%.1fMbps trial=%d", ctx, c.fn.No, c.p, c.load/1e6, c.trial)
		},
		memo,
		withProgress(opts, ctx, func(i int) (trialOut, error) {
			c := cells[i]
			return gaTrial(c.fn, c.p, gaCellSeed(opts, c.trial, c.fn, c.p), opts, c.load)
		}))
	if err != nil {
		return nil, err
	}
	opts.sweepDone(ctx)
	return outs, nil
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
	var res Figure2Result
	var cells []gaCellRef
	for _, p := range opts.Procs {
		for _, fn := range fns {
			for trial := 0; trial < opts.Trials; trial++ {
				cells = append(cells, gaCellRef{fn: fn, p: p, trial: trial})
			}
		}
	}
	outs, err := runGACells("figure2", cells, opts)
	if err != nil {
		return res, err
	}
	idx := 0
	for _, p := range opts.Procs {
		agg := newGASums()
		for _, fn := range fns {
			cellAcc := newGASums()
			for trial := 0; trial < opts.Trials; trial++ {
				out := outs[idx]
				idx++
				cellAcc.add(out)
				agg.add(out)
			}
			row := cellAcc.row(fn, p, 0)
			res.PerFunc = append(res.PerFunc, row)
			if fn.No == 1 {
				res.BestCase = append(res.BestCase, row)
			}
		}
		res.Average = append(res.Average, agg.row(nil, p, 0))
	}
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
	const p = 4 // the paper was restricted to a 4-node configuration
	var res Figure4Result
	var cells []gaCellRef
	for _, load := range Figure4Loads {
		for _, fn := range fns {
			for trial := 0; trial < opts.Trials; trial++ {
				cells = append(cells, gaCellRef{fn: fn, p: p, load: load, trial: trial})
			}
		}
	}
	outs, err := runGACells("figure4", cells, opts)
	if err != nil {
		return res, err
	}
	idx := 0
	for _, load := range Figure4Loads {
		agg := newGASums()
		var best GARow
		for _, fn := range fns {
			cellAcc := newGASums()
			for trial := 0; trial < opts.Trials; trial++ {
				out := outs[idx]
				idx++
				cellAcc.add(out)
				agg.add(out)
			}
			if fn.No == 1 {
				best = cellAcc.row(fn, p, load)
			}
		}
		res.BestCase = append(res.BestCase, best)
		res.Average = append(res.Average, agg.row(nil, p, load))
	}
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

// bayesAges is the Global_Read sweep for the inference benchmarks. The
// useful staleness range for logic sampling is iterations of pipeline
// lag, so the GA's sweep applies directly.
var bayesAges = Ages

// Figure3 reproduces Figure 3: speedups of the parallel logic-sampling
// implementations on a 2-node configuration for each Table 2 network,
// plus the average (ratio of summed serial times to summed parallel
// times).
func Figure3(w io.Writer, opts Options) (Figure3Result, error) {
	nets := bayes.Table2Networks()
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
	type bayesCellRef struct {
		net   *bayes.Network
		trial int
	}
	var cells []bayesCellRef
	for _, bn := range nets {
		for trial := 0; trial < opts.Trials; trial++ {
			cells = append(cells, bayesCellRef{net: bn, trial: trial})
		}
	}
	memo, err := opts.sweepMemo("figure3", func(i int) ckpt.Key {
		c := cells[i]
		return bayesCellKey("figure3", c.net, c.trial,
			runner.DeriveSeed(opts.Seed, seedStreamBayes, int64(c.trial)))
	})
	if err != nil {
		return res, err
	}
	opts.sweepStart("figure3", len(cells))
	outs, err := runner.MapMemo(len(cells), opts.Workers,
		func(i int) string {
			return fmt.Sprintf("figure3 %s trial=%d", cells[i].net.Name, cells[i].trial)
		},
		memo,
		withProgress(opts, "figure3", func(i int) (bayesTrialOut, error) {
			bn, trial := cells[i].net, cells[i].trial
			// The trial seed is shared across networks (not a collision:
			// each network is a distinct paired experiment on the stream).
			seed := runner.DeriveSeed(opts.Seed, seedStreamBayes, int64(trial))
			q := bayes.DefaultQuery(bn)
			calib := bayes.DefaultCalibration()
			out := bayesTrialOut{
				Par:       map[Variant]sim.Duration{},
				Rollbacks: map[Variant]int64{},
				Iters:     map[Variant]int64{},
			}
			serial := bayes.InferSerial(bn, q, opts.Precision, seed, calib, bayesMaxIters(opts))
			out.Serial = serial.Time
			// Every variant runs on one partition and one set of
			// defaults, built once for the job.
			plan, err := bayes.NewPlan(bn, q, 2, seed)
			if err != nil {
				return out, err
			}
			for _, v := range bayesVariants() {
				cfg := bayes.ParallelConfig{
					Net: bn, Query: q, P: 2,
					Mode: v.Mode, Age: v.Age,
					Precision:   opts.Precision,
					MaxIters:    bayesMaxIters(opts),
					Seed:        seed,
					Calib:       calib,
					NetCfg:      opts.netOverride(),
					Faults:      opts.Faults,
					Reliable:    opts.Reliable,
					ReadTimeout: opts.ReadTimeout,
					RaceCheck:   opts.SimRace,
				}
				pr, err := plan.Run(cfg)
				if err != nil {
					return out, fmt.Errorf("%s: %w", v, err)
				}
				out.Par[v] += pr.Completion
				out.Rollbacks[v] = pr.Rollbacks
				out.Iters[v] = pr.Iters
			}
			return out, nil
		}))
	if err != nil {
		return res, err
	}
	opts.sweepDone("figure3")

	totSerial := sim.Duration(0)
	totPar := map[Variant]sim.Duration{}
	avgAcc := BayesRow{Speedup: map[Variant]float64{}, Rollbacks: map[Variant]float64{}, Iters: map[Variant]float64{}}
	idx := 0
	for _, bn := range nets {
		row := BayesRow{
			Net:       bn,
			Speedup:   map[Variant]float64{},
			Rollbacks: map[Variant]float64{},
			Iters:     map[Variant]float64{},
		}
		serialSum := sim.Duration(0)
		parSum := map[Variant]sim.Duration{}
		for trial := 0; trial < opts.Trials; trial++ {
			out := outs[idx]
			idx++
			serialSum += out.Serial
			totSerial += out.Serial
			for _, v := range bayesVariants() {
				parSum[v] += out.Par[v]
				totPar[v] += out.Par[v]
				row.Rollbacks[v] += float64(out.Rollbacks[v]) / float64(opts.Trials)
				row.Iters[v] += float64(out.Iters[v]) / float64(opts.Trials)
			}
		}
		for _, v := range bayesVariants() {
			row.Speedup[v] = ratio(serialSum, parSum[v])
		}
		finishBayesRow(&row)
		res.Rows = append(res.Rows, row)
	}

	for _, v := range bayesVariants() {
		avgAcc.Speedup[v] = ratio(totSerial, totPar[v])
	}
	finishBayesRow(&avgAcc)
	res.Average = avgAcc

	if w != nil {
		printBayesRows(w, "Figure 3: belief-network speedups, 2 processors, unloaded network", res)
	}
	return res, nil
}

func bayesVariants() []Variant {
	vs := []Variant{{Mode: core.Sync}, {Mode: core.Async}}
	for _, a := range bayesAges {
		vs = append(vs, Variant{Mode: core.NonStrict, Age: a})
	}
	return vs
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

func finishBayesRow(row *BayesRow) {
	row.BestComp = 1.0
	for _, v := range []Variant{{Mode: core.Sync}, {Mode: core.Async}} {
		if s := row.Speedup[v]; s > row.BestComp {
			row.BestComp = s
		}
	}
	for _, a := range bayesAges {
		if s := row.Speedup[Variant{Mode: core.NonStrict, Age: a}]; s > row.BestGR {
			row.BestGR = s
		}
	}
	row.Improve = row.BestGR / row.BestComp
}

func printBayesRows(w io.Writer, caption string, res Figure3Result) {
	fmt.Fprintf(w, "%s\n", caption)
	fmt.Fprintf(w, "%-12s", "network")
	for _, v := range bayesVariants() {
		fmt.Fprintf(w, " %8s", v)
	}
	fmt.Fprintf(w, " %8s %8s %9s\n", "best-gr", "best-cmp", "improve")
	rows := append([]BayesRow{}, res.Rows...)
	rows = append(rows, res.Average)
	for i, r := range rows {
		name := "average"
		if r.Net != nil {
			name = r.Net.Name
		}
		_ = i
		fmt.Fprintf(w, "%-12s", name)
		for _, v := range bayesVariants() {
			fmt.Fprintf(w, " %8.2f", r.Speedup[v])
		}
		fmt.Fprintf(w, " %8.2f %8.2f %+8.0f%%\n", r.BestGR, r.BestComp, (r.Improve-1)*100)
	}
}

package main

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"nscc/internal/bayes"
	"nscc/internal/core"
	"nscc/internal/exper"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/graph"
	"nscc/internal/netsim"
	"nscc/internal/runner"
)

// A workload is one exper sweep, the benchmark's unit of input, split
// along one axis into parts. A run's job i runs part i mod parts,
// seeded with repSeed(seed, i / parts), so the run's -seed alone fixes
// every input.
type workload struct {
	name  string
	parts int
	// partSeconds is a part's typical wall time on the reference box (a
	// 2-core Xeon VM, one worker, GOMAXPROCS=1). -seconds is divided by
	// twice it, one pass each, to fix the job count, so the work a run
	// does depends only on -seconds, never on how fast the code under
	// test is.
	partSeconds float64
	// sweep runs one part at opts.Seed, writing its text table and
	// full-precision results to w (the digest input) and checking its
	// invariants. The outcome's cell count is set even on error.
	sweep func(w io.Writer, opts exper.Options, part int, tiny bool) (outcome, error)
	// cell runs one representative cell through the kernel's public
	// entry point and returns its simulated work counts.
	cell func(seed int64, tiny bool) (counts, error)
}

// outcome is one part's cell grid, correctness verdict and headline
// result.
type outcome struct {
	cells      int      // the sweep's cell grid
	failed     int      // cells whose rows broke an invariant
	problems   []string // one line per broken invariant
	improvePct float64  // best Global_Read over its competitor, in %
}

// fail records a broken invariant that invalidates n cells.
func (o *outcome) fail(n int, format string, args ...interface{}) {
	o.failed = min(o.failed+n, o.cells)
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads is the benchmark's input set. Each stresses a different
// layer, so an optimization of one layer moves one workload and leaves
// the others flat; README.md gives the per-layer predictions.
var workloads = []workload{
	{name: "fig2_ga", parts: 8, partSeconds: 0.63, sweep: sweepFig2, cell: cellFig2},
	{name: "fig3_bayes", parts: 1, partSeconds: 1.05, sweep: sweepFig3, cell: cellFig3},
	{name: "age_loaded", parts: 3, partSeconds: 1.65, sweep: sweepAge, cell: cellAge},
	{name: "scale_1k", parts: 3, partSeconds: 1.75, sweep: sweepScale, cell: cellScale},
	{name: "graph_20k", parts: 2, partSeconds: 1.2, sweep: sweepGraph, cell: cellGraph},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// repSeed derives the seed of a run's cycle through the parts.
func repSeed(seed int64, cycle int) int64 {
	if cycle == 0 {
		return seed
	}
	return runner.DeriveSeed(seed, int64(cycle))
}

// baseOptions is the profile every workload starts from: exper's Quick
// profile with one worker, so a cell's host time is not shared with
// another cell, and a run-length cap of twice the reference run's, not
// four times. A variant that misses its target runs on to the cap, and
// the rare one that ran to 4× made fig2_ga's time vary from seed to
// seed by 5–9%; at 2×, by 0.5%.
func baseOptions(seed int64) exper.Options {
	opts := exper.Quick()
	opts.Seed, opts.Workers, opts.CapFactor = seed, 1, 2
	return opts
}

// Sizes smaller than the Quick profile's (120 synchronous generations,
// precision 0.02), so that two passes over every part fit in a 10 s
// run.
const (
	fig2Gens  = 30
	ageGens   = 75
	scaleGens = 16

	fig3Precision = 0.03
)

// Seed streams of exper's sweeps, so a representative cell reruns one
// of the sweep's own cells.
const (
	streamGA    = 1
	streamBayes = 2
	streamAge   = 3
	streamGraph = 5
	streamScale = 6
)

// --- fig2_ga: Figure 2, Quick profile at fig2Gens, one trial, P 2..16,
// unloaded bus; one part per test function.

func sweepFig2(w io.Writer, opts exper.Options, part int, tiny bool) (outcome, error) {
	opts.Trials, opts.SyncGens = 1, fig2Gens
	fns := functions.All()[part : part+1]
	if tiny {
		opts.Procs, opts.SyncGens = []int{2}, 8
	}
	o := outcome{cells: exper.Figure2Cells(opts, fns)}
	res, err := exper.Figure2(w, opts, fns)
	if err != nil {
		return o, err
	}
	rows := append(append([]exper.GARow{}, res.PerFunc...), res.Average...)
	if err := exper.WriteGARowsCSV(w, rows); err != nil {
		return o, err
	}
	dumpGARows(w, rows)

	if len(res.PerFunc) != len(opts.Procs)*len(fns) || len(res.Average) != len(opts.Procs) {
		o.fail(o.cells, "figure2: %d per-function and %d average rows for a %d×%d grid",
			len(res.PerFunc), len(res.Average), len(opts.Procs), len(fns))
		return o, nil
	}
	for _, r := range res.PerFunc {
		checkSpeedups(&o, opts.Trials, fmt.Sprintf("figure2 F%d P=%d", r.Fn.No, r.P), r.Speedup)
	}
	for _, r := range res.Average {
		checkSpeedups(&o, len(fns)*opts.Trials, fmt.Sprintf("figure2 average P=%d", r.P), r.Speedup)
	}
	o.improvePct = (res.Average[len(res.Average)-1].Improve - 1) * 100
	return o, nil
}

// cellFig2 is the sweep's largest cell at the paper's mid-range age:
// F1 on 16 islands, gr(10).
func cellFig2(seed int64, tiny bool) (counts, error) {
	return runGACell(runner.DeriveSeed(seed, streamGA, 0, 1, 16), tiny, fig2Gens, 0, 10)
}

// runGACell runs F1 on 16 islands the way exper's GA sweeps run a cell:
// the synchronous reference of gens generations for the quality target,
// then the Global_Read variant at the given age and background load.
func runGACell(seed int64, tiny bool, gens int64, load float64, age int64) (counts, error) {
	opts := baseOptions(seed)
	p := 16
	opts.SyncGens = gens
	if tiny {
		p, opts.SyncGens = 2, 8
	}
	base := ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: p,
		FixedGens: opts.SyncGens,
		MinGens:   opts.SyncGens,
		MaxGens:   int64(opts.CapFactor * float64(opts.SyncGens)),
		Seed:      seed,
		Calib:     ga.DefaultCalibration(),
		LoaderBps: load,
	}
	syncCfg := base
	syncCfg.Mode = core.Sync
	syncRes, err := ga.RunIsland(syncCfg)
	if err != nil {
		return nil, fmt.Errorf("sync reference: %w", err)
	}
	cfg := base
	cfg.Mode, cfg.Age, cfg.Target = core.NonStrict, age, syncRes.Avg
	res, err := ga.RunIsland(cfg)
	if err != nil {
		return nil, err
	}
	return gaCounts(res), nil
}

func gaCounts(res ga.IslandResult) counts {
	c := telemetryCounts(res.Telemetry)
	for _, g := range res.Gens {
		c["ga.gens"] += float64(g)
	}
	return c
}

// --- fig3_bayes: Figure 3 at fig3Precision, one trial of the four
// Table 2 networks on two processors; one part.

func sweepFig3(w io.Writer, opts exper.Options, _ int, tiny bool) (outcome, error) {
	opts.Trials, opts.Precision = 1, fig3Precision
	if tiny {
		opts.Precision, opts.CapFactor = 0.2, 0.1
	}
	o := outcome{cells: exper.Figure3Cells(opts)}
	res, err := exper.Figure3(w, opts)
	if err != nil {
		return o, err
	}
	if err := exper.WriteBayesRowsCSV(w, res); err != nil {
		return o, err
	}
	rows := append(append([]exper.BayesRow{}, res.Rows...), res.Average)
	for _, r := range rows {
		name := "avg"
		if r.Net != nil {
			name = r.Net.Name
		}
		fmt.Fprint(w, name)
		for _, v := range exper.Variants() {
			fmt.Fprintf(w, " %s=%s/r%s/i%s", v, fp(r.Speedup[v]), fp(r.Rollbacks[v]), fp(r.Iters[v]))
		}
		fmt.Fprintf(w, " bestgr=%s bestcomp=%s improve=%s\n", fp(r.BestGR), fp(r.BestComp), fp(r.Improve))
	}

	if nets := len(bayes.Table2Networks()); len(res.Rows) != nets {
		o.fail(o.cells, "figure3: %d rows for %d networks", len(res.Rows), nets)
		return o, nil
	}
	for _, r := range res.Rows {
		checkSpeedups(&o, opts.Trials, "figure3 "+r.Net.Name, r.Speedup)
	}
	checkSpeedups(&o, o.cells, "figure3 average", res.Average.Speedup)
	o.improvePct = (res.Average.Improve - 1) * 100
	return o, nil
}

// cellFig3 runs Table 2's network A on two partitions at gr(10), with
// the sweep's precision and iteration cap.
func cellFig3(seed int64, tiny bool) (counts, error) {
	bn := bayes.Table2Networks()[0]
	cfg := bayes.ParallelConfig{
		Net: bn, Query: bayes.DefaultQuery(bn), P: 2,
		Mode: core.NonStrict, Age: 10,
		Precision: fig3Precision,
		// exper's Figure 3 cap at this precision: 40000 iterations at
		// CapFactor 4.
		MaxIters: int64(40000 * baseOptions(seed).CapFactor / 4),
		Seed:     runner.DeriveSeed(seed, streamBayes, 0),
		Calib:    bayes.DefaultCalibration(),
	}
	if tiny {
		cfg.Precision, cfg.MaxIters = 0.2, 2000
	}
	res, err := bayes.RunParallel(cfg)
	if err != nil {
		return nil, err
	}
	c := telemetryCounts(res.Telemetry)
	c["bayes.iters"] = float64(res.Iters)
	c["bayes.rollbacks"] = float64(res.Rollbacks)
	c["bayes.replay_ratio"] = ratio(float64(res.Replayed), float64(res.Iters))
	return c, nil
}

// --- age_loaded: AgeSweep of F1 on 16 islands at ageGens, three
// trials; one part per background load, 2, 1 and 0 Mbps.

func sweepAge(w io.Writer, opts exper.Options, part int, tiny bool) (outcome, error) {
	opts.Trials, opts.SyncGens = 3, ageGens
	p, loads := 16, []float64{2e6, 1e6, 0}[part:part+1]
	if tiny {
		opts.Trials, opts.SyncGens, p = 1, 8, 2
	}
	o := outcome{cells: exper.AgeSweepCells(opts, len(loads))}
	res, err := exper.AgeSweep(w, opts, functions.F1, p, loads)
	if err != nil {
		return o, err
	}
	dump := func(tag string, rows []exper.AgeSweepRow) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s age=%d load=%s speedup=%s blocked=%d warp=%s\n",
				tag, r.Age, fp(r.LoadBps), fp(r.Speedup), int64(r.Blocked), fp(r.Warp))
		}
	}
	dump("fixed", res.Rows)
	dump("dyn", res.Dynamic)

	// AgeSweepCells counts one reference per (load, trial) plus one
	// cell per (load, age point, trial), the dynamic age included.
	ages := o.cells/(len(loads)*opts.Trials) - 2
	if len(res.Rows) != len(loads)*ages || len(res.Dynamic) != len(loads) {
		o.fail(o.cells, "agesweep: %d fixed and %d dynamic rows for %d loads × %d ages",
			len(res.Rows), len(res.Dynamic), len(loads), ages)
		return o, nil
	}
	for _, r := range append(append([]exper.AgeSweepRow{}, res.Rows...), res.Dynamic...) {
		if !(r.Speedup > 0) || math.IsInf(r.Speedup, 0) {
			o.fail(opts.Trials, "agesweep age=%d load=%g: speedup %v", r.Age, r.LoadBps, r.Speedup)
		}
	}
	// The sweep has no sync or async variant; Global_Read's gain is the
	// best age over age 0, lock-step reading.
	var age0 float64
	for _, r := range res.Rows {
		if r.Age == 0 {
			age0 = r.Speedup
		}
	}
	_, best := res.BestAge(loads[0])
	o.improvePct = (ratio(best, age0) - 1) * 100
	return o, nil
}

// cellAge is the sweep's blocking extreme: gr(0) at 2 Mbps.
func cellAge(seed int64, tiny bool) (counts, error) {
	return runGACell(runner.DeriveSeed(seed, streamAge, 0), tiny, ageGens, 2e6, 0)
}

// --- scale_1k: ScaleSweep at 1000 islands on the rack/spine fabric,
// one trial, a scaleGens budget; one part per gossip overlay.

// scaleTopologies are the sweep's parts.
var scaleTopologies = []ga.Topology{ga.GossipRing, ga.GossipRandom, ga.GossipClustered}

// scaleSize sets opts to the sweep's size and returns its node count.
func scaleSize(opts *exper.Options, tiny bool) int {
	opts.Trials, opts.SyncGens = 1, scaleGens
	if tiny {
		opts.SyncGens = 4
		return 16
	}
	return 1000
}

func sweepScale(w io.Writer, opts exper.Options, part int, tiny bool) (outcome, error) {
	nodes, topos := []int{scaleSize(&opts, tiny)}, scaleTopologies[part:part+1]
	o := outcome{cells: exper.ScaleSweepCells(opts, nodes, topos)}
	rows, err := exper.ScaleSweep(w, opts, nodes, topos)
	if err != nil {
		return o, err
	}
	if err := exper.WriteScaleRowsCSV(w, rows); err != nil {
		return o, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%d %s t=%d g=%s b=%s fb=%s a=%s m=%d d=%d nb=%d q=%d w=%s c=%d\n",
			r.Nodes, r.Topology, r.Trials, fp(r.Gens), fp(r.Best), fp(r.FinalBest), fp(r.Avg),
			r.Messages, r.Delivered, r.NetBytes, int64(r.QueueDelay), fp(r.Warp), int64(r.Completion))
	}

	if len(rows) != len(nodes)*len(topos) {
		o.fail(o.cells, "scalesweep: %d rows for %d node counts × %d topologies", len(rows), len(nodes), len(topos))
		return o, nil
	}
	for _, r := range rows {
		if r.Gens != float64(opts.SyncGens) {
			o.fail(opts.Trials, "scalesweep %d %s: mean gens %v, budget %d", r.Nodes, r.Topology, r.Gens, opts.SyncGens)
		}
	}
	return o, nil
}

// cellScale is the sweep's gossip-random cell: a fixed-budget gr(10)
// run of 1000 islands on the rack/spine fabric.
func cellScale(seed int64, tiny bool) (counts, error) {
	opts := exper.Quick()
	nodes := scaleSize(&opts, tiny)
	h := netsim.DefaultHierConfig()
	res, err := ga.RunIsland(ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: nodes,
		Mode: core.NonStrict, Age: 10,
		Topology:  ga.GossipRandom,
		FixedGens: opts.SyncGens, MinGens: opts.SyncGens, MaxGens: opts.SyncGens,
		Target: -1, // unreachable: every island runs its full budget
		Seed:   runner.DeriveSeed(seed, streamScale, int64(nodes), int64(ga.GossipRandom), 0),
		Calib:  ga.DefaultCalibration(),
		Hier:   &h,
	})
	if err != nil {
		return nil, err
	}
	return gaCounts(res), nil
}

// --- graph_20k: GraphSweep of PageRank and SSSP on 20k-vertex graphs,
// 16 partitions, one trial; one part per graph, random and clustered.
// A part's time depends on its graph, so a run covers two graphs of
// each kind, not one graph twice.

// graphSize sets opts to the sweep's size and returns the part's
// topology spec, its generator seeded from the run, and the partition
// count.
func graphSize(opts *exper.Options, part int, tiny bool) (string, int) {
	opts.Trials = 1
	seed := strconv.FormatInt(opts.Seed, 10)
	if tiny {
		return "random:n=64,m=128,seed=" + seed, 2
	}
	return []string{"random:n=20000,m=80000,seed=", "clustered:n=20000,k=16,seed="}[part] + seed, 16
}

func sweepGraph(w io.Writer, opts exper.Options, part int, tiny bool) (outcome, error) {
	spec, p := graphSize(&opts, part, tiny)
	specs := []string{spec}
	o := outcome{cells: exper.GraphSweepCells(opts, len(specs))}
	rows, err := exper.GraphSweep(w, opts, specs, p)
	if err != nil {
		return o, err
	}
	if err := exper.WriteGraphRowsCSV(w, rows); err != nil {
		return o, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s %s p=%d", r.Spec, r.Algo, r.P)
		for _, v := range exper.Variants() {
			fmt.Fprintf(w, " %s=%s/s%s/c%d/d%s/w%s", v, fp(r.Speedup[v]), fp(r.Supersteps[v]),
				r.Converged[v], fp(r.MaxDiff[v]), fp(r.Warp[v]))
		}
		fmt.Fprintln(w)
	}

	if len(rows) != len(specs)*len(graph.Algos) {
		o.fail(o.cells, "graphsweep: %d rows for %d specs × %d algorithms", len(rows), len(specs), len(graph.Algos))
		return o, nil
	}
	bestGR, bestComp := 0.0, 1.0 // the sequential program is a competitor too
	for _, r := range rows {
		name := "graphsweep " + r.Spec + " " + r.Algo.String()
		checkSpeedups(&o, opts.Trials, name, r.Speedup)
		for _, v := range exper.Variants() {
			if r.Converged[v] != opts.Trials || r.MaxDiff[v] > graph.DiffEps {
				o.fail(opts.Trials, "%s %s: converged %d/%d, max diff %g (limit %g)",
					name, v, r.Converged[v], opts.Trials, r.MaxDiff[v], graph.DiffEps)
			}
			if v.Mode == core.NonStrict {
				bestGR = math.Max(bestGR, r.Speedup[v])
			} else {
				bestComp = math.Max(bestComp, r.Speedup[v])
			}
		}
	}
	o.improvePct = (bestGR/bestComp - 1) * 100
	return o, nil
}

// cellGraph runs PageRank on the sweep's random graph, 16 partitions,
// gr(10), and measures its distance from the sequential oracle.
func cellGraph(seed int64, tiny bool) (counts, error) {
	opts := exper.Quick()
	opts.Seed = seed
	spec, p := graphSize(&opts, 0, tiny)
	g, err := graph.ParseTopoSpec(spec)
	if err != nil {
		return nil, err
	}
	calib := graph.DefaultCalibration()
	const maxSteps = 4000 // exper's graph sweep cap
	res, err := graph.Run(graph.Config{
		G: g, Algo: graph.PageRank, P: p,
		Mode: core.NonStrict, Age: 10,
		MaxSupersteps: maxSteps,
		Seed:          runner.DeriveSeed(seed, streamGraph, 0, 0, 0),
		Calib:         calib,
	})
	if err != nil {
		return nil, err
	}
	seq := graph.RunSequential(g, graph.PageRank, 0, maxSteps, calib)
	c := telemetryCounts(res.Telemetry)
	for _, n := range res.Supersteps {
		c["graph.supersteps"] += float64(n)
	}
	c["graph.max_diff"] = graph.MaxDiff(res.Values, seq.Values)
	return c, nil
}

// --- shared helpers ------------------------------------------------------

// checkSpeedups fails n cells unless every variant has a finite,
// positive speedup.
func checkSpeedups(o *outcome, n int, row string, speedup map[exper.Variant]float64) {
	for _, v := range exper.Variants() {
		s, ok := speedup[v]
		if !ok || !(s > 0) || math.IsInf(s, 0) {
			o.fail(n, "%s %s: speedup %v", row, v, s)
			return
		}
	}
}

// dumpGARows writes every GA row field at full precision.
func dumpGARows(w io.Writer, rows []exper.GARow) {
	for _, r := range rows {
		name := "avg"
		if r.Fn != nil {
			name = "F" + strconv.Itoa(r.Fn.No)
		}
		fmt.Fprintf(w, "%s p=%d load=%s", name, r.P, fp(r.LoadBps))
		for _, v := range exper.Variants() {
			fmt.Fprintf(w, " %s=%s/f%d/m%d/w%s", v, fp(r.Speedup[v]), r.OptFound[v], r.TargetMiss[v], fp(r.Warp[v]))
		}
		fmt.Fprintf(w, " bestgr=%s bestcomp=%s improve=%s\n", fp(r.BestGR), fp(r.BestComp), fp(r.Improve))
	}
}

// fp renders f with round-trip precision, so a one-ULP change shows in
// the digest.
func fp(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

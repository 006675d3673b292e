// Package exper drives the paper's experiments: one function per table
// and figure of the evaluation (§5), each running the full protocol —
// serial baseline, synchronous, fully asynchronous, and Global_Read
// implementations at every age setting — over repeated seeded trials,
// and formatting the same rows/series the paper reports.
//
// Two profiles are provided: Quick (the default for benchmarks and CI —
// fewer trials and generations, same experimental structure) and Full
// (paper scale: 1000-generation synchronous GAs, 25 GA trials, 10
// inference trials).
package exper

import (
	"encoding/json"
	"fmt"
	"io"

	"nscc/internal/bayes"
	"nscc/internal/ckpt"
	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/runner"
	"nscc/internal/sim"
)

// Ages is the paper's Global_Read staleness sweep.
var Ages = []int64{0, 5, 10, 20, 30}

// Variant identifies one implementation in the comparisons.
type Variant struct {
	Mode core.Mode
	Age  int64 // meaningful for NonStrict only
}

func (v Variant) String() string {
	if v.Mode == core.NonStrict {
		return fmt.Sprintf("gr(%d)", v.Age)
	}
	return v.Mode.String()
}

// MarshalText lets Variant serve as a JSON map key in the cached cell
// payloads the checkpoint journal stores.
func (v Variant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses the String form back ("sync", "async", "gr(N)").
func (v *Variant) UnmarshalText(text []byte) error {
	s := string(text)
	switch s {
	case core.Sync.String():
		*v = Variant{Mode: core.Sync}
	case core.Async.String():
		*v = Variant{Mode: core.Async}
	default:
		var age int64
		if _, err := fmt.Sscanf(s, "gr(%d)", &age); err != nil {
			return fmt.Errorf("exper: unknown variant %q", s)
		}
		*v = Variant{Mode: core.NonStrict, Age: age}
	}
	return nil
}

// Variants returns the paper's comparison set: sync, async, and
// Global_Read at each age.
func Variants() []Variant {
	vs := []Variant{{Mode: core.Sync}, {Mode: core.Async}}
	for _, a := range Ages {
		vs = append(vs, Variant{Mode: core.NonStrict, Age: a})
	}
	return vs
}

// Options scales the experiment protocol.
type Options struct {
	Trials    int     // seeded repetitions averaged (paper: 25 GA, 10 BN)
	SyncGens  int64   // synchronous GA generation count (paper: 1000)
	CapFactor float64 // MaxGens/MaxIters = CapFactor * reference length
	Procs     []int   // processor counts for Figure 2
	Seed      int64
	Precision float64 // inference CI half-width target (paper: 0.01)
	// UseSwitch runs the GA and graph cells, and the trace demo's GA,
	// on the SP2-style crossbar switch instead of the shared Ethernet
	// (the extension experiment behind the paper's §4.1 expectation).
	// Bayes cells stay on the bus.
	UseSwitch bool
	// Workers is the sweep parallelism: every driver enumerates its
	// cells up front and dispatches them on a runner pool of this many
	// workers (<1 = one per CPU). Results are aggregated in cell order,
	// so output is byte-identical at any worker count.
	Workers int
	// Faults, if non-nil, applies the same fault plan to every simulated
	// cluster in the sweeps. Strictly opt-in: nil leaves every cell
	// byte-identical to the fault-free suite.
	Faults *faults.Plan
	// Reliable runs the message layer of every cell with
	// sequence-numbered ack/retransmit delivery.
	Reliable bool
	// ReadTimeout, if positive, bounds Global_Read blocking in every
	// cell; timed-out reads degrade to the cached value and count as
	// staleness violations.
	ReadTimeout sim.Duration
	// LossProb, if positive, overrides the network model's independent
	// per-frame loss probability (the lossy-Ethernet recipe). Only the
	// shared buses have a loss model: with UseSwitch the crossbar
	// carries the GA and graph cells and ignores it, so the commands
	// refuse the two together.
	LossProb float64
	// SimRace runs the simulated-time race classifier in every cell
	// (ga.IslandConfig.RaceCheck) and adds race columns to the sweeps
	// that report them. Strictly passive: cells keep byte-identical
	// virtual time with it on or off.
	SimRace bool
	// Ckpt, if non-nil, journals every sweep cell's result in a
	// crash-safe content-addressed cache: on a rerun (the store's
	// resume mode) cells whose fingerprint — coordinates, derived seed,
	// config knobs, schema version — is already journaled replay
	// instantly instead of recomputing, and the sweep output stays
	// byte-identical to an uninterrupted, uncached run at any worker
	// count.
	Ckpt *ckpt.Store
	// Progress, if non-nil, receives sweep lifecycle callbacks: one
	// SweepStart per sweep with its cell count, one CellDone per cell
	// (computed or replayed from the checkpoint cache), one SweepDone on
	// success. Strictly observational — it never reaches the
	// simulations, is excluded from checkpoint fingerprints, and cannot
	// change any sweep output. Implementations must be safe for
	// concurrent use by pool workers (the -http status server is one).
	Progress ProgressSink
}

// ProgressSink observes sweep execution. Callbacks may arrive
// concurrently from pool workers; implementations synchronize
// internally (package exper itself stays free of raw concurrency).
type ProgressSink interface {
	SweepStart(sweep string, cells int)
	CellDone(sweep string)
	SweepDone(sweep string)
}

// runSweep runs the named sweep's n cells on the worker pool and
// returns their outputs in cell order. key fingerprints cell i in the
// sweep's checkpoint journal, and label names it in errors. With a
// checkpoint store, every cell's output is the decoded JSON of its
// journal record: a hit replays the record without running the cell,
// and a miss runs it and journals its encoding first, so a replayed
// cell is bit-identical to a fresh one (JSON round-trips every float64
// exactly, so both equal an uncached run). The progress sink sees the
// sweep start, every cell done once, computed or replayed, and the
// sweep end.
func runSweep[T any](o Options, sweep string, n int, key func(int) ckpt.Key, label func(int) string, cell func(int) (T, error)) ([]T, error) {
	var j *ckpt.Journal
	if o.Ckpt != nil {
		var err error
		if j, err = o.Ckpt.Journal(sweep, o.sweepSpace(sweep)); err != nil {
			return nil, err
		}
	}
	if o.Progress != nil {
		o.Progress.SweepStart(sweep, n)
	}
	outs, err := runner.Map(n, o.Workers, label, func(i int) (T, error) {
		v, err := journaledCell(j, key, i, cell)
		if err == nil && o.Progress != nil {
			o.Progress.CellDone(sweep)
		}
		return v, err
	})
	if err == nil && o.Progress != nil {
		o.Progress.SweepDone(sweep)
	}
	return outs, err
}

// journaledCell returns cell i's output: computed when j is nil, else
// decoded from its journal record, written from the computed output
// on a miss. A failed journal write fails the cell: a cache that
// cannot journal must not pretend the sweep is resumable.
func journaledCell[T any](j *ckpt.Journal, key func(int) ckpt.Key, i int, cell func(int) (T, error)) (T, error) {
	if j == nil {
		return cell(i)
	}
	var v T
	k := key(i)
	data, ok := j.Get(k)
	if !ok {
		out, err := cell(i)
		if err != nil {
			return v, err
		}
		if data, err = json.Marshal(out); err != nil {
			return v, err
		}
		if err := j.Put(k, data); err != nil {
			return v, err
		}
	}
	err := json.Unmarshal(data, &v)
	return v, err
}

// cluster returns the fault and observation settings every cell's
// cluster runs with.
func (o Options) cluster() cluster.Options {
	return cluster.Options{Faults: o.Faults, Reliable: o.Reliable, ReadTimeout: o.ReadTimeout, RaceCheck: o.SimRace}
}

// netOverride returns the bus config override the fault knobs imply,
// or nil when the defaults stand.
func (o Options) netOverride() *netsim.Config {
	if o.LossProb <= 0 {
		return nil
	}
	nc := netsim.DefaultConfig()
	nc.LossProb = o.LossProb
	return &nc
}

// fabric returns the network a GA or graph cell runs on: the crossbar
// switch under UseSwitch, else the bus with netOverride's loss. Bayes
// cells stay on the bus (see UseSwitch).
func (o Options) fabric() (*netsim.Config, *netsim.SwitchConfig) {
	if o.UseSwitch {
		sw := netsim.DefaultSwitchConfig()
		return nil, &sw
	}
	return o.netOverride(), nil
}

// gaConfig returns the island GA config every GA cell starts from: fn
// on p processors under loadBps of background traffic, the profile's
// generation budget, and the cell's fabric and cluster settings. The
// caller sets the mode, age and quality target.
func (o Options) gaConfig(fn *functions.Function, p int, seed int64, loadBps float64) ga.IslandConfig {
	cfg := ga.IslandConfig{
		Fn: fn, Par: ga.DeJongParams(), P: p,
		FixedGens: o.SyncGens,
		MinGens:   o.SyncGens,
		MaxGens:   int64(o.CapFactor * float64(o.SyncGens)),
		Seed:      seed,
		Calib:     ga.DefaultCalibration(),
		LoaderBps: loadBps,
		Options:   o.cluster(),
	}
	cfg.Net, cfg.Switch = o.fabric()
	return cfg
}

// bayesConfig returns the parallel logic-sampling config of variant v
// on bn for query q: Figure 3's processor count, the profile's
// precision and iteration cap, and the cell's bus and cluster settings.
func (o Options) bayesConfig(bn *bayes.Network, q bayes.Query, v Variant, seed int64) bayes.ParallelConfig {
	return bayes.ParallelConfig{
		Net: bn, Query: q, P: bayesProcs,
		Mode: v.Mode, Age: v.Age,
		Precision: o.Precision,
		MaxIters:  bayesMaxIters(o),
		Seed:      seed,
		Calib:     bayes.DefaultCalibration(),
		NetCfg:    o.netOverride(),
		Options:   o.cluster(),
	}
}

// Seed streams keep the drivers' cell spaces disjoint: every call site
// derives seeds as runner.DeriveSeed(opts.Seed, stream, dims...), so a
// GA cell can never alias a Bayes trial, an age-sweep trial, or a
// Table 2 partitioning run.
const (
	seedStreamGA int64 = iota + 1
	seedStreamBayes
	seedStreamAge
	seedStreamTable2
	seedStreamGraph
	seedStreamScale
)

// gaCellSeed derives the seed of one (trial, function, P) GA cell. The
// serial baseline and every variant of the cell share it, preserving
// the paired-comparison structure of the old inline arithmetic without
// its cross-cell collisions.
func gaCellSeed(opts Options, trial int, fn *functions.Function, p int) int64 {
	return runner.DeriveSeed(opts.Seed, seedStreamGA, int64(trial), int64(fn.No), int64(p))
}

// Quick returns the fast profile used by the benchmark harness: the
// full experimental structure at reduced trial counts and generation
// budgets.
func Quick() Options {
	return Options{
		Trials:    2,
		SyncGens:  120,
		CapFactor: 4,
		Procs:     []int{2, 4, 8, 16},
		Seed:      2000,
		Precision: 0.02,
	}
}

// Full returns the paper-scale profile (§4.3, §5.1).
func Full() Options {
	return Options{
		Trials:    25,
		SyncGens:  1000,
		CapFactor: 4,
		Procs:     []int{2, 4, 8, 16},
		Seed:      2000,
		Precision: 0.01,
	}
}

// GARow is one (function, processors) cell of Figures 2/4: mean speedup
// over the serial program for each variant, plus the derived best-GR
// versus best-competitor improvement.
type GARow struct {
	Fn       *functions.Function
	P        int
	LoadBps  float64
	Speedup  map[Variant]float64 // mean over trials
	BestGR   float64             // best Global_Read speedup
	BestComp float64             // best of serial (1.0), sync, async
	// Improve is the paper's headline metric: best partially
	// asynchronous over best competitor, as a ratio (1.42 = 42% faster).
	Improve float64
	// Quality bookkeeping.
	OptFound   map[Variant]int // trials in which the optimum was reached
	TargetMiss map[Variant]int // trials in which the variant hit MaxGens without matching sync quality
	// Warp is the mean warp metric per variant (network stability: 1 =
	// stable, >>1 = load increasing; §4.3).
	Warp map[Variant]float64
}

// trialOut is one gaTrial's raw measurements. Its fields are exported
// (and Variant is a text-marshaling map key) because trialOut is the
// payload the checkpoint journal caches as JSON.
type trialOut struct {
	Serial sim.Duration             `json:"serial"`
	Times  map[Variant]sim.Duration `json:"times"`
	Found  map[Variant]bool         `json:"found"`
	Missed map[Variant]bool         `json:"missed"`
	Warp   map[Variant]float64      `json:"warp"`
}

// gaTrial runs the full variant protocol for one (function, P, seed),
// returning the serial baseline time, each variant's completion time,
// and whether each variant found the optimum. The paper's average
// metric needs raw times ("the ratio of the sum of the execution times
// for the serial program for all the benchmarks to that for the
// parallel programs"), so times rather than ratios are returned.
func gaTrial(fn *functions.Function, p int, seed int64, opts Options, loadBps float64) (trialOut, error) {
	base := opts.gaConfig(fn, p, seed, loadBps)
	serial := ga.RunSerial(fn, base.Par, base.Par.N*p, opts.SyncGens, seed, base.Calib)
	out := trialOut{
		Serial: serial.Time,
		Times:  make(map[Variant]sim.Duration),
		Found:  make(map[Variant]bool),
		Missed: make(map[Variant]bool),
		Warp:   make(map[Variant]float64),
	}
	// The asynchronous and controlled versions run until a
	// subpopulation's average fitness converges at least as far as the
	// synchronous program's final average (§5.1.1), so the synchronous
	// run, first in Variants, sets the target of the rest.
	var target float64
	for _, v := range Variants() {
		cfg := base
		cfg.Mode, cfg.Age, cfg.Target = v.Mode, v.Age, target
		r, err := ga.RunIsland(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", v, err)
		}
		if v.Mode == core.Sync {
			target = r.Avg
		}
		out.Times[v] = r.Completion
		out.Found[v] = r.OptimumFound
		out.Missed[v] = !r.ReachedTarget
		out.Warp[v] = r.WarpMean
	}
	return out, nil
}

func ratio(a, b sim.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return a.Seconds() / b.Seconds()
}

// gaSums accumulates raw times across trials (and, for the average
// row, across functions).
type gaSums struct {
	serial sim.Duration
	comp   map[Variant]sim.Duration
	found  map[Variant]int
	missed map[Variant]int
	warp   map[Variant]float64
	trials int
}

func newGASums() *gaSums {
	return &gaSums{
		comp:   make(map[Variant]sim.Duration),
		found:  make(map[Variant]int),
		missed: make(map[Variant]int),
		warp:   make(map[Variant]float64),
	}
}

func (a *gaSums) add(out trialOut) {
	a.serial += out.Serial
	for v, t := range out.Times {
		a.comp[v] += t
	}
	for v, ok := range out.Found {
		if ok {
			a.found[v]++
		}
	}
	for v, miss := range out.Missed {
		if miss {
			a.missed[v]++
		}
	}
	for v, w := range out.Warp {
		a.warp[v] += w
	}
	a.trials++
}

// row derives the paper's metrics from the accumulated times.
func (a *gaSums) row(fn *functions.Function, p int, loadBps float64) GARow {
	row := GARow{
		Fn: fn, P: p, LoadBps: loadBps,
		Speedup:    make(map[Variant]float64),
		OptFound:   a.found,
		TargetMiss: a.missed,
		Warp:       make(map[Variant]float64),
	}
	for v, t := range a.comp {
		row.Speedup[v] = ratio(a.serial, t)
	}
	for v, w := range a.warp {
		if a.trials > 0 {
			row.Warp[v] = w / float64(a.trials)
		}
	}
	row.BestGR, row.BestComp, row.Improve = best(row.Speedup)
	return row
}

// best derives a row's headline comparison from its speedups: the best
// Global_Read speedup, the best competitor (the serial program's 1.0,
// sync or async), and the improvement, their ratio.
func best(speedup map[Variant]float64) (bestGR, bestComp, improve float64) {
	bestComp = 1.0 // the serial program itself
	for _, v := range Variants() {
		switch s := speedup[v]; {
		case v.Mode == core.NonStrict && s > bestGR:
			bestGR = s
		case v.Mode != core.NonStrict && s > bestComp:
			bestComp = s
		}
	}
	return bestGR, bestComp, bestGR / bestComp
}

// GACell runs opts.Trials seeded trials of one (function, P, load)
// cell on the worker pool and derives the comparison metrics.
func GACell(fn *functions.Function, p int, opts Options, loadBps float64) (GARow, error) {
	rows, _, err := gaGrid(opts, "gacell", []gaPoint{{p: p, load: loadBps}}, []*functions.Function{fn})
	if err != nil {
		return GARow{}, err
	}
	return rows[0], nil
}

// printGARows renders rows in the paper's bar-chart layout as a text
// table.
func printGARows(w io.Writer, caption string, rows []GARow) {
	fmt.Fprintf(w, "%s\n", caption)
	fmt.Fprintf(w, "%-10s %4s", "bench", "P")
	for _, v := range Variants() {
		fmt.Fprintf(w, " %8s", v)
	}
	fmt.Fprintf(w, " %8s %8s %9s %10s\n", "best-gr", "best-cmp", "improve", "warp(asy)")
	for _, r := range rows {
		name := "average"
		if r.Fn != nil {
			name = fmt.Sprintf("F%d", r.Fn.No)
		}
		fmt.Fprintf(w, "%-10s %4d", name, r.P)
		for _, v := range Variants() {
			fmt.Fprintf(w, " %8.2f", r.Speedup[v])
		}
		fmt.Fprintf(w, " %8.2f %8.2f %+8.0f%% %10.2f\n",
			r.BestGR, r.BestComp, (r.Improve-1)*100, r.Warp[Variant{Mode: core.Async}])
	}
}

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
	"fmt"
	"io"

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
	// UseSwitch runs the GA experiments on the SP2-style crossbar
	// switch instead of the shared Ethernet (the extension experiment
	// behind the paper's §4.1 expectation).
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
	// per-frame loss probability (the lossy-Ethernet recipe).
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
// sweep's checkpoint journal, and label names it in errors. The
// progress sink sees the sweep start, every cell done once — a computed
// cell here, a replayed one through sweepMemo's wrapper — and the sweep
// end.
func runSweep[T any](o Options, sweep string, n int, key func(int) ckpt.Key, label func(int) string, cell func(int) (T, error)) ([]T, error) {
	memo, err := o.sweepMemo(sweep, key)
	if err != nil {
		return nil, err
	}
	fn := cell
	if o.Progress != nil {
		o.Progress.SweepStart(sweep, n)
		fn = func(i int) (T, error) {
			v, err := cell(i)
			if err == nil {
				o.Progress.CellDone(sweep)
			}
			return v, err
		}
	}
	outs, err := runner.MapMemo(n, o.Workers, label, memo, fn)
	if err == nil && o.Progress != nil {
		o.Progress.SweepDone(sweep)
	}
	return outs, err
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

// gaTrial runs the full variant protocol for one (function, P, seed),
// returning the serial baseline time, each variant's completion time,
// and whether each variant found the optimum. The paper's average
// metric needs raw times ("the ratio of the sum of the execution times
// for the serial program for all the benchmarks to that for the
// parallel programs"), so times rather than ratios are returned.
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

func gaTrial(fn *functions.Function, p int, seed int64, opts Options, loadBps float64) (trialOut, error) {
	par := ga.DeJongParams()
	calib := ga.DefaultCalibration()
	serial := ga.RunSerial(fn, par, par.N*p, opts.SyncGens, seed, calib)

	base := ga.IslandConfig{
		Fn: fn, Par: par, P: p,
		FixedGens: opts.SyncGens,
		MinGens:   opts.SyncGens,
		MaxGens:   int64(opts.CapFactor * float64(opts.SyncGens)),
		Seed:      seed,
		Calib:     calib,
		LoaderBps: loadBps,
		Net:       opts.netOverride(),
		Options:   opts.cluster(),
	}
	if opts.UseSwitch {
		sw := netsim.DefaultSwitchConfig()
		base.Switch = &sw
	}

	out := trialOut{
		Serial: serial.Time,
		Times:  make(map[Variant]sim.Duration),
		Found:  make(map[Variant]bool),
		Missed: make(map[Variant]bool),
		Warp:   make(map[Variant]float64),
	}
	record := func(v Variant, r ga.IslandResult) {
		out.Times[v] = r.Completion
		out.Found[v] = r.OptimumFound
		out.Missed[v] = !r.ReachedTarget
		out.Warp[v] = r.WarpMean
	}

	syncCfg := base
	syncCfg.Mode = core.Sync
	syncRes, err := ga.RunIsland(syncCfg)
	if err != nil {
		return out, fmt.Errorf("sync: %w", err)
	}
	record(Variant{Mode: core.Sync}, syncRes)

	// The asynchronous and controlled versions run until a
	// subpopulation's average fitness converges at least as far as the
	// synchronous program's final average (§5.1.1).
	target := syncRes.Avg

	asyncCfg := base
	asyncCfg.Mode = core.Async
	asyncCfg.Target = target
	asyncRes, err := ga.RunIsland(asyncCfg)
	if err != nil {
		return out, fmt.Errorf("async: %w", err)
	}
	record(Variant{Mode: core.Async}, asyncRes)

	for _, age := range Ages {
		cfg := base
		cfg.Mode = core.NonStrict
		cfg.Age = age
		cfg.Target = target
		res, err := ga.RunIsland(cfg)
		if err != nil {
			return out, fmt.Errorf("gr(%d): %w", age, err)
		}
		record(Variant{Mode: core.NonStrict, Age: age}, res)
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
	row.BestComp = 1.0 // the serial program itself
	for _, v := range []Variant{{Mode: core.Sync}, {Mode: core.Async}} {
		if s := row.Speedup[v]; s > row.BestComp {
			row.BestComp = s
		}
	}
	for _, age := range Ages {
		if s := row.Speedup[Variant{Mode: core.NonStrict, Age: age}]; s > row.BestGR {
			row.BestGR = s
		}
	}
	row.Improve = row.BestGR / row.BestComp
	return row
}

// GACell runs opts.Trials seeded trials of one (function, P, load)
// cell on the worker pool and derives the comparison metrics.
func GACell(fn *functions.Function, p int, opts Options, loadBps float64) (GARow, error) {
	outs, err := runner.Map(opts.Trials, opts.Workers,
		func(t int) string { return fmt.Sprintf("F%d P=%d trial=%d", fn.No, p, t) },
		func(t int) (trialOut, error) {
			return gaTrial(fn, p, gaCellSeed(opts, t, fn, p), opts, loadBps)
		})
	if err != nil {
		return GARow{}, err
	}
	acc := newGASums()
	for _, out := range outs {
		acc.add(out)
	}
	return acc.row(fn, p, loadBps), nil
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

package exper

import (
	"fmt"
	"io"

	"nscc/internal/ckpt"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/runner"
	"nscc/internal/sim"
)

// AgeSweepRow is one (age, load) point of the staleness sweep.
type AgeSweepRow struct {
	Age     int64
	LoadBps float64
	Speedup float64
	Blocked sim.Duration
	Warp    float64
	// Race-classifier totals over the row's trials (filled only when
	// Options.SimRace): reads that raced but honored the age bound, and
	// reads that raced with no bound in force.
	Tolerated int64
	Unbounded int64
}

// AgeSweepResult is the age-vs-speedup surface for one function and
// processor count, across background loads — the paper's §6 point that
// "different degrees of asynchrony are best for different programs and
// network loads", made into an experiment. The dynamic-age extension is
// included as the final pseudo-age row of each load.
type AgeSweepResult struct {
	Fn      *functions.Function
	P       int
	Rows    []AgeSweepRow
	Dynamic []AgeSweepRow // one per load, run-time-adapted age
	// RaceLocations is the per-location race classification merged over
	// every cell of the sweep (filled only when Options.SimRace); its
	// merged rows feed the -simrace-out report and the nscc-lint
	// reconciliation.
	RaceLocations []metrics.LocationRace
}

// ageSweepAges is a denser grid than the paper's figure set, to resolve
// the optimum.
var ageSweepAges = []int64{0, 2, 5, 10, 20, 30, 50}

// ageSweepSeed is the per-trial seed shared by the serial reference,
// the synchronous target run, and every age point of that trial.
func ageSweepSeed(opts Options, trial int) int64 {
	return runner.DeriveSeed(opts.Seed, seedStreamAge, int64(trial))
}

// AgeSweep measures speedup as a function of the Global_Read age for fn
// on p processors, at each background load level, plus the dynamic-age
// adaptation for comparison. The sweep runs in two pooled stages: the
// per-(load, trial) synchronous reference runs (which define each
// trial's quality target), then every (load, age, trial) cell.
func AgeSweep(w io.Writer, opts Options, fn *functions.Function, p int, loads []float64) (AgeSweepResult, error) {
	if fn == nil {
		fn = functions.F1
	}
	if loads == nil {
		loads = []float64{0, 2e6}
	}
	res := AgeSweepResult{Fn: fn, P: p}
	par := ga.DeJongParams()
	calib := ga.DefaultCalibration()

	// Stage 1: references. One job per (load, trial); each returns the
	// serial baseline time and the synchronous run's final average (the
	// quality target of stage 2's runs at that load and trial). Fields
	// are exported because this is a checkpoint-journal payload.
	type refOut struct {
		Serial sim.Duration `json:"serial"`
		Target float64      `json:"target"`
	}
	nLoads, nTrials := len(loads), opts.Trials
	refs, err := runSweep(opts, "agesweep-refs", nLoads*nTrials,
		func(i int) ckpt.Key {
			load, trial := loads[i/nTrials], i%nTrials
			return ageRefKey(fn, p, load, trial, ageSweepSeed(opts, trial))
		},
		func(i int) string {
			return fmt.Sprintf("agesweep ref load=%.1fMbps trial=%d", loads[i/nTrials]/1e6, i%nTrials)
		},
		func(i int) (refOut, error) {
			load, trial := loads[i/nTrials], i%nTrials
			seed := ageSweepSeed(opts, trial)
			serial := ga.RunSerial(fn, par, par.N*p, opts.SyncGens, seed, calib)
			syncCfg := ga.IslandConfig{
				Fn: fn, Par: par, P: p, Mode: core.Sync,
				FixedGens: opts.SyncGens, Seed: seed, Calib: calib, LoaderBps: load,
				Net:     opts.netOverride(),
				Options: opts.cluster(),
			}
			if opts.UseSwitch {
				sw := netsim.DefaultSwitchConfig()
				syncCfg.Switch = &sw
			}
			syncRes, err := ga.RunIsland(syncCfg)
			if err != nil {
				return refOut{}, err
			}
			return refOut{Serial: serial.Time, Target: syncRes.Avg}, nil
		})
	if err != nil {
		return res, err
	}

	// Stage 2: the sweep surface. Age index len(ageSweepAges) is the
	// dynamic-age pseudo-point. Fields exported: checkpoint-journal
	// payload.
	type cellOut struct {
		Comp      sim.Duration           `json:"comp"`
		Blocked   sim.Duration           `json:"blocked"`
		Warp      float64                `json:"warp"`
		Tolerated int64                  `json:"tolerated,omitempty"`
		Unbounded int64                  `json:"unbounded,omitempty"`
		Locs      []metrics.LocationRace `json:"locs,omitempty"`
	}
	nAges := len(ageSweepAges) + 1
	cellAge := func(ai int) (age int64, dynamic bool) {
		if ai == len(ageSweepAges) {
			return 1, true // dynamic starts tight and adapts
		}
		return ageSweepAges[ai], false
	}
	outs, err := runSweep(opts, "agesweep-cells", nLoads*nAges*nTrials,
		func(i int) ckpt.Key {
			li, ai, trial := i/(nAges*nTrials), (i/nTrials)%nAges, i%nTrials
			age, dynamic := cellAge(ai)
			return ageCellKey(fn, p, loads[li], age, dynamic, trial, ageSweepSeed(opts, trial))
		},
		func(i int) string {
			li, ai, trial := i/(nAges*nTrials), (i/nTrials)%nAges, i%nTrials
			age, dynamic := cellAge(ai)
			name := fmt.Sprintf("age=%d", age)
			if dynamic {
				name = "age=dyn"
			}
			return fmt.Sprintf("agesweep load=%.1fMbps %s trial=%d", loads[li]/1e6, name, trial)
		},
		func(i int) (cellOut, error) {
			li, ai, trial := i/(nAges*nTrials), (i/nTrials)%nAges, i%nTrials
			age, dynamic := cellAge(ai)
			seed := ageSweepSeed(opts, trial)
			cfg := ga.IslandConfig{
				Fn: fn, Par: par, P: p, Mode: core.NonStrict, Age: age,
				FixedGens: opts.SyncGens, MinGens: opts.SyncGens,
				MaxGens: int64(opts.CapFactor * float64(opts.SyncGens)),
				Target:  refs[li*nTrials+trial].Target,
				Seed:    seed, Calib: calib, LoaderBps: loads[li],
				DynamicAge: dynamic,
				Net:        opts.netOverride(),
				Options:    opts.cluster(),
			}
			if opts.UseSwitch {
				sw := netsim.DefaultSwitchConfig()
				cfg.Switch = &sw
			}
			r, err := ga.RunIsland(cfg)
			if err != nil {
				return cellOut{}, err
			}
			out := cellOut{Comp: r.Completion, Blocked: r.BlockedTime, Warp: r.WarpMean}
			if rt := r.Telemetry.Races; rt != nil {
				out.Tolerated, out.Unbounded = rt.ToleratedStale, rt.Unbounded
				out.Locs = r.Telemetry.RaceLocations
			}
			return out, nil
		})
	if err != nil {
		return res, err
	}

	// Aggregate trials in enumeration order.
	for li, load := range loads {
		var serialSum sim.Duration
		for trial := 0; trial < nTrials; trial++ {
			serialSum += refs[li*nTrials+trial].Serial
		}
		for ai := 0; ai < nAges; ai++ {
			age, dynamic := cellAge(ai)
			row := AgeSweepRow{Age: age, LoadBps: load}
			var compSum sim.Duration
			var warpSum float64
			for trial := 0; trial < nTrials; trial++ {
				out := outs[(li*nAges+ai)*nTrials+trial]
				compSum += out.Comp
				row.Blocked += out.Blocked
				warpSum += out.Warp
				row.Tolerated += out.Tolerated
				row.Unbounded += out.Unbounded
				res.RaceLocations = metrics.MergeLocationRaces(res.RaceLocations, out.Locs)
			}
			row.Speedup = ratio(serialSum, compSum)
			row.Warp = warpSum / float64(nTrials)
			if dynamic {
				res.Dynamic = append(res.Dynamic, row)
			} else {
				res.Rows = append(res.Rows, row)
			}
		}
	}

	if w != nil {
		fmt.Fprintf(w, "Age sweep: F%d, %d processors (speedup over serial per age and load)\n", fn.No, p)
		fmt.Fprintf(w, "%-10s %6s %9s %12s %6s", "load", "age", "speedup", "blocked", "warp")
		if opts.SimRace {
			fmt.Fprintf(w, " %10s %10s", "tolerated", "unbounded")
		}
		fmt.Fprintln(w)
		printRow := func(age string, r AgeSweepRow) {
			fmt.Fprintf(w, "%-10s %6s %9.2f %12v %6.2f",
				fmt.Sprintf("%.1fMbps", r.LoadBps/1e6), age, r.Speedup, r.Blocked, r.Warp)
			if opts.SimRace {
				fmt.Fprintf(w, " %10d %10d", r.Tolerated, r.Unbounded)
			}
			fmt.Fprintln(w)
		}
		for _, r := range res.Rows {
			printRow(fmt.Sprintf("%d", r.Age), r)
		}
		for _, r := range res.Dynamic {
			printRow("dyn", r)
		}
	}
	return res, nil
}

// BestAge returns the best-performing fixed age at the given load.
func (r AgeSweepResult) BestAge(loadBps float64) (age int64, speedup float64) {
	for _, row := range r.Rows {
		if row.LoadBps == loadBps && row.Speedup > speedup {
			age, speedup = row.Age, row.Speedup
		}
	}
	return
}

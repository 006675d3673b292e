package exper

import (
	"encoding/csv"
	"fmt"
	"io"

	"nscc/internal/ckpt"
	"nscc/internal/graph"
	"nscc/internal/netsim"
	"nscc/internal/runner"
	"nscc/internal/sim"
)

// GraphSweepSpecs is the default topology matrix of the graph
// delay-tolerance sweep: the diameter-maximizing ring, a random graph,
// and a clustered graph whose inter-cluster bridges concentrate the
// staleness-critical traffic.
var GraphSweepSpecs = []string{
	"ring:48",
	"random:n=48,m=96,seed=7",
	"clustered:n=48,k=4,seed=7",
}

// graphMaxSupersteps caps every partitioned run in the sweep; a cell
// that hits it reports Converged=false rather than erroring.
const graphMaxSupersteps = 4000

// GraphRow is one (topology, algorithm) aggregate of the graph sweep:
// per-variant speedup over the sequential oracle, mean superstep counts,
// convergence bookkeeping, and the differential check against the
// oracle's fixed point.
type GraphRow struct {
	Spec string
	Algo graph.Algo
	P    int

	Speedup    map[Variant]float64 // oracle time / completion, trial-summed
	Supersteps map[Variant]float64 // mean supersteps per partition per trial
	Converged  map[Variant]int     // trials whose coordinator declared convergence
	MaxDiff    map[Variant]float64 // worst L-inf distance from the oracle over trials
	Warp       map[Variant]float64 // mean warp metric
	// Race-classifier totals over the row's trials (filled only when
	// Options.SimRace).
	Tolerated map[Variant]int64
	Unbounded map[Variant]int64
}

// graphCellSeed derives the seed of one (spec, algo, trial) cell; the
// sequential oracle and every variant of the cell share it.
func graphCellSeed(opts Options, si, ai, trial int) int64 {
	return runner.DeriveSeed(opts.Seed, seedStreamGraph, int64(si), int64(ai), int64(trial))
}

// graphTrialOut is one cell's raw measurements — the checkpoint-journal
// payload, so fields are exported and Variant keys marshal as text.
type graphTrialOut struct {
	Serial sim.Duration             `json:"serial"`
	Times  map[Variant]sim.Duration `json:"times"`
	Steps  map[Variant]float64      `json:"steps"` // mean supersteps per partition
	Conv   map[Variant]bool         `json:"conv"`
	Diff   map[Variant]float64      `json:"diff"`
	Warp   map[Variant]float64      `json:"warp"`
	Tol    map[Variant]int64        `json:"tol,omitempty"`
	Unb    map[Variant]int64        `json:"unb,omitempty"`
}

// GraphConfig returns the config the graph sweep runs variant v of algo
// on p partitions of g with: the sweep's superstep cap and calibration,
// the given seed, and opts' network, fault and race-check settings.
func GraphConfig(g *graph.Graph, algo graph.Algo, p int, v Variant, seed int64, opts Options) graph.Config {
	cfg := graph.Config{
		G: g, Algo: algo, P: p,
		Mode: v.Mode, Age: v.Age,
		MaxSupersteps: graphMaxSupersteps,
		Seed:          seed,
		Calib:         graph.DefaultCalibration(),
		Net:           opts.netOverride(),
		Options:       opts.cluster(),
	}
	if opts.UseSwitch {
		sw := netsim.DefaultSwitchConfig()
		cfg.Switch = &sw
	}
	return cfg
}

// graphTrial runs the sequential oracle plus every variant for one
// (topology, algorithm, seed). The variants share one plan, so the
// partitions are laid out once per cell.
func graphTrial(g *graph.Graph, algo graph.Algo, p int, seed int64, opts Options) (graphTrialOut, error) {
	plan, err := graph.NewPlan(g, algo, p)
	if err != nil {
		return graphTrialOut{}, err
	}
	seq := graph.RunSequential(g, algo, 0, graphMaxSupersteps, graph.DefaultCalibration())
	out := graphTrialOut{
		Serial: seq.Time,
		Times:  make(map[Variant]sim.Duration),
		Steps:  make(map[Variant]float64),
		Conv:   make(map[Variant]bool),
		Diff:   make(map[Variant]float64),
		Warp:   make(map[Variant]float64),
	}
	if opts.SimRace {
		out.Tol = make(map[Variant]int64)
		out.Unb = make(map[Variant]int64)
	}
	for _, v := range Variants() {
		r, err := plan.Run(GraphConfig(g, algo, p, v, seed, opts))
		if err != nil {
			return out, fmt.Errorf("%s: %w", v, err)
		}
		out.Times[v] = r.Completion
		var steps int64
		for _, n := range r.Supersteps {
			steps += n
		}
		out.Steps[v] = float64(steps) / float64(p)
		out.Conv[v] = r.Converged
		out.Diff[v] = graph.MaxDiff(r.Values, seq.Values)
		out.Warp[v] = r.WarpMean
		if rt := r.Telemetry.Races; rt != nil && opts.SimRace {
			out.Tol[v] = rt.ToleratedStale
			out.Unb[v] = rt.Unbounded
		}
	}
	return out, nil
}

// GraphSweep runs the graph delay-tolerance experiment: for every
// topology spec and algorithm, opts.Trials seeded cells each running
// the sequential oracle plus the full variant set (sync, async,
// Global_Read at every age) on p partitions. One cell = one pooled
// job; aggregation is in enumeration order, so output is byte-identical
// at any worker count.
func GraphSweep(w io.Writer, opts Options, specs []string, p int) ([]GraphRow, error) {
	if specs == nil {
		specs = GraphSweepSpecs
	}
	graphs := make([]*graph.Graph, len(specs))
	for i, spec := range specs {
		g, err := graph.ParseTopoSpec(spec)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	algos := graph.Algos
	nTrials := opts.Trials
	nCells := len(specs) * len(algos) * nTrials
	coords := func(i int) (si, ai, trial int) {
		return i / (len(algos) * nTrials), (i / nTrials) % len(algos), i % nTrials
	}
	outs, err := runSweep(opts, "graphsweep", nCells,
		func(i int) ckpt.Key {
			si, ai, trial := coords(i)
			return graphCellKey(specs[si], algos[ai], p, trial, graphCellSeed(opts, si, ai, trial))
		},
		func(i int) string {
			si, ai, trial := coords(i)
			return fmt.Sprintf("graphsweep %s %s trial=%d", specs[si], algos[ai], trial)
		},
		func(i int) (graphTrialOut, error) {
			si, ai, trial := coords(i)
			return graphTrial(graphs[si], algos[ai], p, graphCellSeed(opts, si, ai, trial), opts)
		})
	if err != nil {
		return nil, err
	}

	// Aggregate trials in enumeration order.
	var rows []GraphRow
	for si, spec := range specs {
		for ai, algo := range algos {
			row := GraphRow{
				Spec: spec, Algo: algo, P: p,
				Speedup:    make(map[Variant]float64),
				Supersteps: make(map[Variant]float64),
				Converged:  make(map[Variant]int),
				MaxDiff:    make(map[Variant]float64),
				Warp:       make(map[Variant]float64),
				Tolerated:  make(map[Variant]int64),
				Unbounded:  make(map[Variant]int64),
			}
			var serialSum sim.Duration
			compSum := make(map[Variant]sim.Duration)
			for trial := 0; trial < nTrials; trial++ {
				out := outs[(si*len(algos)+ai)*nTrials+trial]
				serialSum += out.Serial
				for _, v := range Variants() {
					compSum[v] += out.Times[v]
					row.Supersteps[v] += out.Steps[v]
					if out.Conv[v] {
						row.Converged[v]++
					}
					if d := out.Diff[v]; d > row.MaxDiff[v] {
						row.MaxDiff[v] = d
					}
					row.Warp[v] += out.Warp[v]
					row.Tolerated[v] += out.Tol[v]
					row.Unbounded[v] += out.Unb[v]
				}
			}
			for _, v := range Variants() {
				row.Speedup[v] = ratio(serialSum, compSum[v])
				row.Supersteps[v] /= float64(nTrials)
				row.Warp[v] /= float64(nTrials)
			}
			rows = append(rows, row)
		}
	}

	if w != nil {
		fmt.Fprintf(w, "Graph sweep: %d partitions (speedup over sequential per variant)\n", p)
		fmt.Fprintf(w, "%-26s %-9s", "topology", "algo")
		for _, v := range Variants() {
			fmt.Fprintf(w, " %8s", v)
		}
		fmt.Fprintf(w, " %9s\n", "conv")
		for _, r := range rows {
			fmt.Fprintf(w, "%-26s %-9s", r.Spec, r.Algo)
			for _, v := range Variants() {
				fmt.Fprintf(w, " %8.2f", r.Speedup[v])
			}
			conv := 0
			for _, v := range Variants() {
				conv += r.Converged[v]
			}
			fmt.Fprintf(w, " %4d/%-4d\n", conv, len(Variants())*nTrials)
		}
	}
	return rows, nil
}

// WriteGraphRowsCSV emits graph sweep rows as CSV (one line per
// (topology, algo, variant)) for external plotting.
func WriteGraphRowsCSV(w io.Writer, rows []GraphRow) error {
	cw := csv.NewWriter(w)
	header := []string{"topology", "algo", "procs", "variant", "speedup",
		"supersteps", "converged", "max_diff", "warp", "tolerated", "unbounded"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		for _, v := range Variants() {
			rec := []string{
				r.Spec,
				r.Algo.String(),
				fmt.Sprintf("%d", r.P),
				v.String(),
				fmt.Sprintf("%.4f", r.Speedup[v]),
				fmt.Sprintf("%.1f", r.Supersteps[v]),
				fmt.Sprintf("%d", r.Converged[v]),
				fmt.Sprintf("%.3g", r.MaxDiff[v]),
				fmt.Sprintf("%.3f", r.Warp[v]),
				fmt.Sprintf("%d", r.Tolerated[v]),
				fmt.Sprintf("%d", r.Unbounded[v]),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

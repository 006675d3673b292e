package exper

import (
	"fmt"
	"io"
	"math/rand"

	"nscc/internal/bayes"
	"nscc/internal/ckpt"
	"nscc/internal/ga/functions"
	"nscc/internal/partition"
	"nscc/internal/runner"
	"nscc/internal/sim"
)

// Table1Row verifies one test-bed entry against Table 1.
type Table1Row struct {
	Fn         *functions.Function
	AtOptimum  float64 // objective evaluated at the known optimum point
	OptimumOK  bool    // AtOptimum agrees with the declared minimum
	ChromoBits int
}

// table1Optima are the known optimum points of the deterministic parts.
func table1Optima(fn *functions.Function) []float64 {
	x := make([]float64, fn.Vars)
	switch fn.No {
	case 2:
		x[0], x[1] = 1, 1
	case 3:
		for i := range x {
			x[i] = -5.12
		}
	case 5:
		x[0], x[1] = -32, -32
	case 7:
		for i := range x {
			x[i] = 420.9687
		}
	}
	return x
}

// Table1 reproduces Table 1: the eight-function test bed with limits
// and minima, verifying each function's declared minimum at its known
// optimum point.
func Table1(w io.Writer) []Table1Row {
	var rows []Table1Row
	for _, fn := range functions.All() {
		at := fn.Eval(table1Optima(fn), nil)
		ok := at <= fn.Min+0.01 || (fn.Min != 0 && at <= fn.Min*0.999+0.01)
		rows = append(rows, Table1Row{Fn: fn, AtOptimum: at, OptimumOK: ok, ChromoBits: fn.TotalBits()})
	}
	if w != nil {
		fmt.Fprintln(w, "Table 1: eight-function test bed for GAs")
		fmt.Fprintf(w, "%-3s %-14s %5s %6s %22s %12s %12s %4s\n",
			"No.", "name", "vars", "bits", "limits", "min f(x)", "f(opt)", "ok")
		for _, r := range rows {
			fmt.Fprintf(w, "%-3d %-14s %5d %6d %10.3f..%-10.3f %12.4f %12.4f %4v\n",
				r.Fn.No, r.Fn.Name, r.Fn.Vars, r.ChromoBits, r.Fn.Lo, r.Fn.Hi, r.Fn.Min, r.AtOptimum, r.OptimumOK)
		}
	}
	return rows
}

// Table2Row is one network's entry in Table 2: structural parameters,
// 2-way edge-cut from the graph partitioner, and the modeled
// uniprocessor inference time. Net is excluded from the checkpoint
// journal's JSON payload (Table2 reattaches the network after the
// cells return, cached or not).
type Table2Row struct {
	Net       *bayes.Network `json:"-"`
	Nodes     int            `json:"nodes"`
	EdgesPer  float64        `json:"edges_per"`
	Values    int            `json:"values"`
	EdgeCut   int            `json:"edge_cut"`   // KL bisection cut (the paper's METIS column), the partitioner the parallel engine uses
	PipeCut   int            `json:"pipe_cut"`   // cut of a topological prefix split, for comparison only
	Serial    sim.Duration   `json:"serial"`     // uniprocessor inference time to the precision target
	SerialRef float64        `json:"serial_ref"` // the paper's reported seconds, for side-by-side
}

// paperSerialSecs are Table 2's IBM SP2 uniprocessor inference times.
var paperSerialSecs = map[string]float64{"A": 11.12, "AA": 11.19, "C": 11.81, "Hailfinder": 3.15}

// Table2 reproduces Table 2: the four belief networks with their
// partitioning and uniprocessor inference statistics. Each network is
// one cell on the worker pool; the partitioner's random stream is
// derived per network (instead of threaded serially through one rng)
// so the cells are order-independent. With a checkpoint store
// configured the per-network cells are cached like every other sweep,
// so the error return now also carries journal failures.
func Table2(w io.Writer, opts Options) ([]Table2Row, error) {
	nets := bayes.Table2Networks()
	rows, err := runSweep(opts, "table2", len(nets),
		func(i int) ckpt.Key {
			return bayesCellKey("table2", nets[i], 0,
				runner.DeriveSeed(opts.Seed, seedStreamTable2, int64(i)))
		},
		func(i int) string { return fmt.Sprintf("table2 %s", nets[i].Name) },
		func(i int) (Table2Row, error) {
			bn := nets[i]
			rng := rand.New(rand.NewSource(runner.DeriveSeed(opts.Seed, seedStreamTable2, int64(i))))
			g := bn.Graph()
			parts := partition.Bisect(g, rng)
			pipe := partition.TopoPrefixSplit(bn.N(), 2, func(int) int { return 1 })
			q := bayes.DefaultQuery(bn)
			serial := bayes.InferSerial(bn, q, opts.Precision, opts.Seed, bayes.DefaultCalibration(), bayesMaxIters(opts))
			return Table2Row{
				Nodes:     bn.N(),
				EdgesPer:  bn.EdgesPerNode(),
				Values:    bn.MaxStates(),
				EdgeCut:   partition.EdgeCut(g, parts),
				PipeCut:   partition.EdgeCut(g, pipe),
				Serial:    serial.Time,
				SerialRef: paperSerialSecs[bn.Name],
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Net = nets[i]
	}
	if w != nil {
		fmt.Fprintln(w, "Table 2: four Bayesian belief networks")
		fmt.Fprintf(w, "%-12s %6s %10s %7s %9s %9s %12s %10s\n",
			"network", "nodes", "edges/node", "values", "cut(KL)", "cut(topo)", "serial(sim)", "paper(s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %6d %10.1f %7d %9d %9d %12.2fs %10.2f\n",
				r.Net.Name, r.Nodes, r.EdgesPer, r.Values, r.EdgeCut, r.PipeCut, r.Serial.Seconds(), r.SerialRef)
		}
	}
	return rows, nil
}

// Figure1Report prints the example medical-diagnosis network of Figure
// 1 with an exact-vs-sampled inference cross-check, and returns the two
// probabilities.
func Figure1Report(w io.Writer, opts Options) (exact, sampled float64) {
	bn := bayes.Figure1()
	q := bayes.Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}} // p(D=t | A=t)
	exact = bayes.Exact(bn, q)
	res := bayes.InferSerial(bn, q, opts.Precision, opts.Seed, bayes.DefaultCalibration(), 2_000_000)
	sampled = res.Prob
	if w != nil {
		fmt.Fprintln(w, "Figure 1: example Bayesian network (medical diagnosis)")
		for i := range bn.Nodes {
			nd := &bn.Nodes[i]
			fmt.Fprintf(w, "  %s: states=%d parents=%v\n", nd.Name, nd.States, nd.Parents)
		}
		fmt.Fprintf(w, "  p(D=true | B=true, C=true) = %.2f (paper: 0.80)\n", bn.Nodes[3].CPT[3][1])
		fmt.Fprintf(w, "  p(D=true | A=true): exact %.4f, logic sampling %.4f (+-%.3f, %d samples)\n",
			exact, sampled, res.HalfWidth, res.Iters)
	}
	return exact, sampled
}

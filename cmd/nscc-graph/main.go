// Command nscc-graph runs the delayed asynchronous iterative graph
// experiment: PageRank and Bellman-Ford SSSP partitioned across
// simulated cluster nodes, compared across the coherence disciplines
// (barrier-sync, fully asynchronous, and Global_Read at every sweep
// age) against the sequential oracle.
//
// Usage:
//
//	nscc-graph [-topo ring:48,random:n=48,m=96,seed=7,...] [-edges FILE]
//	           [-procs N] [-trials N] [-seed N] [-workers N] [-csv DIR]
//	           [-cache-dir DIR] [-resume] [-http :8080]
//	           [-faults plan.json] [-reliable] [-read-timeout 50ms]
//	           [-loss P] [-simrace]
//
// Result tables go to stdout and are byte-identical at any worker
// count and across cache resumes; timing and cache accounting go to
// stderr. -cache-dir/-resume journal completed cells crash-safely, so
// a killed sweep restarts without recomputing finished work.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nscc/internal/cli"
	"nscc/internal/exper"
	"nscc/internal/graph"
)

func main() {
	f := cli.Register(cli.Switch|cli.Sweep, map[string]string{
		"simrace": "classify every cross-process read with the simulated-time race checker (adds race columns to the CSV)",
	})
	var (
		topo   = flag.String("topo", "", "comma-separated topology specs (ring:N / random:n=N,m=M,seed=S / clustered:n=N,k=K,seed=S); default the standard three-topology matrix")
		edgesF = flag.String("edges", "", "load one topology from this edge-list file instead of -topo")
		procsN = flag.Int("procs", 4, "partitions (simulated processors) per run")
		seed   = flag.Int64("seed", 0, "override base seed")
	)
	flag.Parse()
	if *procsN < 1 {
		fmt.Fprintln(os.Stderr, "-procs must be at least 1")
		os.Exit(2)
	}
	// Every report includes the Sync variant.
	cli.ExitIf(f.Check(true), 2)
	// The topologies, each checked against -procs. A file-based one runs
	// the direct one-graph report (no cell cache — the journal keys on
	// spec strings, not file contents).
	var specs []string
	var edges *graph.Graph
	switch {
	case *edgesF != "" && *topo != "":
		fmt.Fprintln(os.Stderr, "-edges and -topo are mutually exclusive")
		os.Exit(2)
	case *edgesF != "":
		data, err := os.ReadFile(*edgesF)
		if err == nil {
			edges, err = graph.ParseEdgeList(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "-edges: %v\n", err)
			os.Exit(2)
		}
		checkProcs(*procsN, *edgesF, edges)
	case *topo != "":
		specs = splitSpecs(*topo)
	default:
		specs = exper.GraphSweepSpecs
	}
	for _, s := range specs {
		g, err := graph.ParseTopoSpec(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-topo: %v\n", err)
			os.Exit(2)
		}
		checkProcs(*procsN, s, g)
	}
	cli.ExitIf(f.Start(), 2)
	defer f.Close()

	opts := exper.Quick()
	if *seed != 0 {
		opts.Seed = *seed
	}
	f.Exper(&opts)

	if edges != nil {
		cli.ExitIf(edgeListReport(edges, *edgesF, *procsN, opts), 1)
		return
	}

	cells := exper.GraphSweepCells(opts, len(specs))
	fmt.Println("== Graph sweep ==")
	start := time.Now() //nscc:wallclock -- host-side cells/sec meter, not simulated time
	rows, err := exper.GraphSweep(os.Stdout, opts, specs, *procsN)
	cli.ExitIf(err, 1)
	wall := time.Since(start) //nscc:wallclock -- host-side cells/sec meter, not simulated time
	fmt.Fprintf(os.Stderr, "-- graphsweep: %d cells in %.2fs (%.1f cells/sec)\n",
		cells, wall.Seconds(), float64(cells)/wall.Seconds())

	cli.ExitIf(f.WriteCSV("graphsweep.csv", func(w io.Writer) error {
		return exper.WriteGraphRowsCSV(w, rows)
	}), 1)
	cli.ExitIf(f.CloseStore(), 1)
}

// checkProcs exits with status 2 unless p partitions fit the graph g,
// which the topology name describes.
func checkProcs(p int, name string, g *graph.Graph) {
	if p > g.N {
		fmt.Fprintf(os.Stderr, "-procs %d exceeds the %d vertices of %s\n", p, g.N, name)
		os.Exit(2)
	}
}

// edgeListReport runs every variant once on a file-loaded graph, each
// configured as the sweep configures it, and prints the per-variant
// comparison against the sequential oracle.
func edgeListReport(g *graph.Graph, name string, p int, opts exper.Options) error {
	calib := graph.DefaultCalibration()
	const maxSteps = 4000
	for _, algo := range graph.Algos {
		seq := graph.RunSequential(g, algo, 0, maxSteps, calib)
		fmt.Printf("%s %s: n=%d m=%d, sequential %d iters\n", name, algo, g.N, g.M(), seq.Iters)
		fmt.Printf("%8s %9s %10s %9s %5s %10s\n", "variant", "speedup", "supersteps", "max_diff", "conv", "completion")
		for _, v := range exper.Variants() {
			r, err := graph.Run(exper.GraphConfig(g, algo, p, v, opts.Seed, opts))
			if err != nil {
				return fmt.Errorf("%s %s: %w", algo, v, err)
			}
			var steps int64
			for _, n := range r.Supersteps {
				steps += n
			}
			fmt.Printf("%8s %9.2f %10.1f %9.2g %5v %10v\n",
				v, seq.Time.Seconds()/r.Completion.Seconds(), float64(steps)/float64(p),
				graph.MaxDiff(r.Values, seq.Values), r.Converged, r.Completion)
		}
		fmt.Println()
	}
	return nil
}

// splitSpecs splits the -topo flag on commas that separate specs, not
// the commas inside a keyed spec: a new spec starts wherever a comma is
// followed by a known kind prefix.
func splitSpecs(s string) []string {
	var specs []string
	cur := ""
	for _, part := range strings.Split(s, ",") {
		trimmed := strings.TrimSpace(part)
		isStart := strings.HasPrefix(trimmed, "ring:") ||
			strings.HasPrefix(trimmed, "random:") ||
			strings.HasPrefix(trimmed, "clustered:")
		if cur == "" || isStart {
			if cur != "" {
				specs = append(specs, cur)
			}
			cur = trimmed
		} else {
			cur += "," + trimmed
		}
	}
	if cur != "" {
		specs = append(specs, cur)
	}
	return specs
}

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
	"path/filepath"
	"strings"
	"time"

	"nscc/internal/ckpt"
	"nscc/internal/exper"
	"nscc/internal/faults"
	"nscc/internal/graph"
	"nscc/internal/obs"
	"nscc/internal/sim"
)

func main() {
	var (
		topo     = flag.String("topo", "", "comma-separated topology specs (ring:N / random:n=N,m=M,seed=S / clustered:n=N,k=K,seed=S); default the standard three-topology matrix")
		edgesF   = flag.String("edges", "", "load one topology from this edge-list file instead of -topo")
		procsN   = flag.Int("procs", 4, "partitions (simulated processors) per run")
		trials   = flag.Int("trials", 0, "override trial count")
		seed     = flag.Int64("seed", 0, "override base seed")
		csvDir   = flag.String("csv", "", "also write results as CSV files into this directory")
		useSw    = flag.Bool("switch", false, "run on the SP2-style crossbar switch instead of the shared Ethernet")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "journal every completed sweep cell into a crash-safe journal under this directory")
		resume   = flag.Bool("resume", false, "replay cells already journaled in -cache-dir instead of recomputing them (requires -cache-dir)")
		faultsF  = flag.String("faults", "", "apply the fault plan in this JSON file to every simulated cluster")
		reliable = flag.Bool("reliable", false, "use sequence-numbered ack/retransmit message delivery")
		readTo   = flag.Duration("read-timeout", 0, "bound Global_Read blocking in virtual time (e.g. 50ms; 0 = wait forever)")
		lossProb = flag.Float64("loss", 0, "override the Ethernet model's per-frame loss probability")
		simRace  = flag.Bool("simrace", false, "classify every cross-process read with the simulated-time race checker (adds race columns to the CSV)")
		httpAddr = flag.String("http", "", "serve the live status page, OpenMetrics /metrics, and /debug/pprof on this address; strictly observer-side")
	)
	flag.Parse()
	if *lossProb < 0 || *lossProb > 1 {
		fmt.Fprintln(os.Stderr, "-loss must be in [0,1]")
		os.Exit(2)
	}
	if *procsN < 1 {
		fmt.Fprintln(os.Stderr, "-procs must be at least 1")
		os.Exit(2)
	}
	if *trials < 0 {
		fmt.Fprintln(os.Stderr, "-trials must not be negative (0 keeps the default)")
		os.Exit(2)
	}
	if *readTo < 0 {
		fmt.Fprintln(os.Stderr, "-read-timeout must not be negative (0 waits forever)")
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "-workers must not be negative (0 = GOMAXPROCS)")
		os.Exit(2)
	}
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -cache-dir")
		os.Exit(2)
	}
	var plan *faults.Plan
	if *faultsF != "" {
		var err error
		if plan, err = faults.LoadFile(*faultsF); err != nil {
			fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
			os.Exit(2)
		}
	}
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

	var srv *obs.Server
	if *httpAddr != "" {
		var err error
		srv, err = obs.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "-- live status on http://%s/ (/metrics, /debug/pprof/)\n", srv.Addr())
	}

	opts := exper.Quick()
	if *trials > 0 {
		opts.Trials = *trials
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.UseSwitch = *useSw
	opts.Workers = *workers
	opts.Faults = plan
	opts.Reliable = *reliable
	opts.ReadTimeout = sim.Duration(readTo.Nanoseconds())
	opts.LossProb = *lossProb
	opts.SimRace = *simRace
	var store *ckpt.Store
	if *cacheDir != "" {
		store = ckpt.NewStore(*cacheDir, *resume)
		opts.Ckpt = store
	}
	if srv != nil {
		opts.Progress = srv
	}

	if edges != nil {
		if err := edgeListReport(edges, *edgesF, *procsN, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cells := exper.GraphSweepCells(opts, len(specs))
	fmt.Println("== Graph sweep ==")
	start := time.Now() //nscc:wallclock -- host-side cells/sec meter, not simulated time
	rows, err := exper.GraphSweep(os.Stdout, opts, specs, *procsN)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(start) //nscc:wallclock -- host-side cells/sec meter, not simulated time
	fmt.Fprintf(os.Stderr, "-- graphsweep: %d cells in %.2fs (%.1f cells/sec)\n",
		cells, wall.Seconds(), float64(cells)/wall.Seconds())

	if err := writeCSV(*csvDir, "graphsweep.csv", func(w io.Writer) error {
		return exper.WriteGraphRowsCSV(w, rows)
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if store != nil {
		c := store.Counters()
		if srv != nil {
			srv.PublishCache(c)
		}
		fmt.Fprintf(os.Stderr, "-- cache: %d hits, %d misses, %d invalidated, %d torn (dir=%s)\n",
			c.Hits, c.Misses, c.Invalidated, c.TornRecords, store.Dir())
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
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

// writeCSV writes one CSV artifact into dir (no-op when dir is empty)
// through the atomic writer.
func writeCSV(dir, name string, fill func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := ckpt.CreateAtomic(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Abort()
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

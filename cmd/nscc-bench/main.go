// Command nscc-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	nscc-bench [-exp all|table1|table2|fig1|fig2|fig3|fig4|agesweep|scale|micro] [-profile quick|full]
//	           [-trials N] [-gens N] [-procs 2,4,8,16] [-funcs 1,2,...] [-seed N]
//	           [-nodes 64,256,1000] [-topologies broadcast,gossip-random]
//	           [-workers N] [-bench-out BENCH_name.json]
//	           [-cache-dir DIR] [-resume] [-http :8080]
//	           [-faults plan.json] [-reliable] [-read-timeout 50ms] [-loss P]
//
// The quick profile runs the full experimental structure at reduced
// trial counts and generation budgets; the full profile is paper scale
// (1000-generation synchronous GAs, 25 GA trials) and takes hours.
//
// Sweep cells fan out over a worker pool (-workers, default GOMAXPROCS);
// results are byte-identical at any worker count. -bench-out writes a
// BENCH_*.json snapshot with per-sweep wall-clock throughput and the
// standard DES microbenchmarks. -nodes and -topologies shape the scale
// sweep alone, so they are refused without -exp scale.
//
// -cache-dir journals every completed sweep cell into crash-safe,
// content-addressed per-sweep journals under DIR. A run killed at any
// point — even mid-write — can be restarted with -resume: journaled
// cells replay instantly, only the lost work re-runs, and the final
// artifacts are byte-identical to an uninterrupted run. Without
// -resume an existing cache is discarded and rebuilt; journals whose
// configuration fingerprint no longer matches the flags are
// invalidated automatically.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"nscc/internal/benchio"
	"nscc/internal/cli"
	"nscc/internal/exper"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/metrics"
	"nscc/internal/runner"
	"nscc/internal/trace"
	"nscc/internal/traceio"
)

func main() {
	f := cli.Register(cli.Switch|cli.SimRaceOut|cli.Sweep, map[string]string{
		"switch":      "run the GA experiments on the SP2-style crossbar switch",
		"simrace":     "classify every cross-process read with the simulated-time race checker (adds race columns to the age sweep)",
		"simrace-out": "write the age sweep's merged per-location race report JSON to this file (requires -simrace and -exp agesweep; feed it to nscc-lint -simrace-report)",
	})
	var (
		exp      = flag.String("exp", "all", "experiment: all, table1, table2, fig1, fig2, fig3, fig4, agesweep, scale, micro (microbenchmarks only, requires -bench-out)")
		profile  = flag.String("profile", "quick", "quick or full")
		gens     = flag.Int64("gens", 0, "override synchronous GA generations")
		procs    = flag.String("procs", "", "override processor counts, e.g. 2,4,8")
		funcs    = flag.String("funcs", "", "restrict GA functions, e.g. 1,5,7 (default all)")
		seed     = flag.Int64("seed", 0, "override base seed")
		trOut    = flag.String("trace-out", "", "run the instrumented demo instead of the suite and write its Chrome trace_event JSON here")
		metOut   = flag.String("metrics-out", "", "run the instrumented demo instead of the suite and write its telemetry JSON here")
		nodesF   = flag.String("nodes", "", "scale sweep island counts, e.g. 64,256,1000,5000 (-exp scale; default 64,256,1000)")
		toposF   = flag.String("topologies", "", "scale sweep dissemination topologies, e.g. broadcast,gossip-random (-exp scale; default all)")
		benchOut = flag.String("bench-out", "", "write a BENCH_*.json performance snapshot to this path")
		profOut  = flag.String("profile-out", "", "write host pprof profiles of the run to PREFIX.cpu.pprof and PREFIX.heap.pprof (profile-guided optimization input; results are unchanged)")
	)
	flag.Parse()

	// Every flag is checked before anything starts: the profiles, the
	// status server, the cache or a sweep.
	bad := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}
	opts := exper.Quick()
	switch *profile {
	case "quick":
	case "full":
		opts = exper.Full()
	default:
		bad("unknown profile %q", *profile)
	}
	if !knownExperiment(*exp) {
		bad("unknown experiment %q", *exp)
	}
	demo := *trOut != "" || *metOut != ""
	// The age sweep is not part of "all" (it is the extension study),
	// but a -bench-out snapshot of "all" includes it so the performance
	// baseline covers every pooled sweep the tool can run. The demo
	// replaces the suite.
	ageSweep := !demo && (*exp == "agesweep" || *exp == "all" && *benchOut != "")
	switch {
	case *exp == "micro" && *benchOut == "":
		bad("-exp micro requires -bench-out (its only output is the snapshot)")
	case *gens < 0:
		bad("-gens %d: want at least 0 (0 keeps the profile's budget)", *gens)
	case *exp != "scale" && *nodesF != "":
		bad("-nodes: only the scale sweep takes island counts (-exp scale)")
	case *exp != "scale" && *toposF != "":
		bad("-topologies: only the scale sweep takes dissemination topologies (-exp scale)")
	}
	// The demo and every experiment with a Sync cell: Figures 2-4 and
	// the age sweep's references.
	syncCell := demo
	switch *exp {
	case "all", "fig2", "fig3", "fig4", "agesweep":
		syncCell = true
	}
	cli.ExitIf(f.Check(syncCell), 2)
	if f.SimRaceOut != "" && !ageSweep {
		bad("-simrace-out: no age sweep runs to write the race report (-exp agesweep, or -exp all with -bench-out, without the -trace-out/-metrics-out demo)")
	}
	if *gens > 0 {
		opts.SyncGens = *gens
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *procs != "" {
		opts.Procs = nil
		for _, s := range strings.Split(*procs, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 {
				bad("bad -procs entry %q", s)
			}
			opts.Procs = append(opts.Procs, p)
		}
	}
	var fns []*functions.Function
	if *funcs != "" {
		for _, s := range strings.Split(*funcs, ",") {
			no, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || no < 1 || no > 8 {
				bad("bad -funcs entry %q", s)
			}
			fns = append(fns, functions.ByNo(no))
		}
	}
	var nodes []int
	if *nodesF != "" {
		for _, s := range strings.Split(*nodesF, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				bad("bad -nodes entry %q", s)
			}
			nodes = append(nodes, n)
		}
	}
	var topos []ga.Topology
	if *toposF != "" {
		for _, s := range strings.Split(*toposF, ",") {
			topo, err := ga.ParseTopology(strings.TrimSpace(s))
			if err != nil {
				bad("%v", err)
			}
			topos = append(topos, topo)
		}
	}

	if *profOut != "" {
		stop, err := startProfiles(*profOut)
		if err != nil {
			bad("%v", err)
		}
		defer stop()
	}
	cli.ExitIf(f.Start(), 2)
	defer f.Close()
	f.Exper(&opts)

	if demo {
		// Tracing a whole experiment suite would produce gigabytes, so
		// the trace/metrics flags run the small instrumented demo
		// (exper.TraceRun) instead of the selected experiments.
		var rec *trace.Recorder
		var tr trace.Tracer
		if *trOut != "" {
			rec = trace.NewRecorder()
			tr = rec
		}
		tel, err := exper.TraceRun(os.Stdout, opts, tr)
		cli.ExitIf(err, 1)
		if f.Server != nil {
			f.Server.PublishTelemetry("ga", tel.GA)
			f.Server.PublishTelemetry("bayes", tel.Bayes)
		}
		cli.ExitIf(cli.WriteArtifacts(*trOut, rec, *metOut, tel), 1)
		// The demo's windowed series as plottable CSV, one file per run.
		for _, out := range []struct {
			name   string
			series []metrics.SeriesSummary
		}{{"ga", tel.GA.Series}, {"bayes", tel.Bayes.Series}} {
			if len(out.series) == 0 {
				continue
			}
			series := out.series
			cli.ExitIf(f.WriteCSV(out.name+"_series.csv", func(w io.Writer) error {
				return exper.WriteSeriesCSV(w, series)
			}), 1)
		}
		return
	}

	snap := benchio.NewSnapshot(*exp, runner.Workers(opts.Workers))

	// run executes one experiment and reports its wall-clock shape.
	// cells is the sweep's pooled job count (0 for analytic reports,
	// which have nothing to parallelize and no throughput to report).
	run := func(name string, cells int, f func() error) {
		fmt.Printf("== %s ==\n", name)
		start := time.Now() //nscc:wallclock -- host-side cells/sec meter, not simulated time
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start) //nscc:wallclock -- host-side cells/sec meter, not simulated time
		if cells > 0 {
			secs := wall.Seconds()
			snap.AddSweep(name, cells, secs)
			// Timing goes to stderr so stdout (the result tables) stays
			// byte-identical across worker counts.
			fmt.Fprintf(os.Stderr, "-- %s: %d cells in %.2fs (%.1f cells/sec, workers=%d)\n",
				name, cells, secs, float64(cells)/secs, snap.Workers)
		}
		fmt.Println()
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	if want("table1") {
		run("Table 1", 0, func() error { exper.Table1(os.Stdout); return nil })
	}
	if want("table2") {
		run("Table 2", exper.Table2Cells(), func() error { _, err := exper.Table2(os.Stdout, opts); return err })
	}
	if want("fig1") {
		run("Figure 1", 0, func() error { exper.Figure1Report(os.Stdout, opts); return nil })
	}
	if want("fig2") {
		run("Figure 2", exper.Figure2Cells(opts, fns), func() error {
			res, err := exper.Figure2(os.Stdout, opts, fns)
			if err != nil {
				return err
			}
			return f.WriteCSV("figure2.csv", func(w io.Writer) error {
				rows := append(append([]exper.GARow{}, res.PerFunc...), res.Average...)
				return exper.WriteGARowsCSV(w, rows)
			})
		})
	}
	if want("fig3") {
		run("Figure 3", exper.Figure3Cells(opts), func() error {
			res, err := exper.Figure3(os.Stdout, opts)
			if err != nil {
				return err
			}
			return f.WriteCSV("figure3.csv", func(w io.Writer) error {
				return exper.WriteBayesRowsCSV(w, res)
			})
		})
	}
	if want("fig4") {
		run("Figure 4", exper.Figure4Cells(opts, fns), func() error {
			res, err := exper.Figure4(os.Stdout, opts, fns)
			if err != nil {
				return err
			}
			return f.WriteCSV("figure4.csv", func(w io.Writer) error {
				rows := append(append([]exper.GARow{}, res.BestCase...), res.Average...)
				return exper.WriteGARowsCSV(w, rows)
			})
		})
	}
	if ageSweep {
		loads := []float64{0, 1e6, 2e6}
		run("Age sweep", exper.AgeSweepCells(opts, len(loads)), func() error {
			fn := functions.F1
			if len(fns) > 0 {
				fn = fns[0]
			}
			p := 4
			if len(opts.Procs) > 0 {
				p = opts.Procs[len(opts.Procs)-1]
			}
			res, err := exper.AgeSweep(os.Stdout, opts, fn, p, loads)
			if err != nil {
				return err
			}
			if f.SimRaceOut != "" {
				totals := metrics.TotalsFromLocations(res.RaceLocations)
				rep := metrics.RaceReport{Schema: metrics.RaceReportSchema,
					Totals: totals, Locations: res.RaceLocations}
				if err := traceio.WriteMetrics(f.SimRaceOut, rep); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", f.SimRaceOut)
			}
			return nil
		})
	}
	// The scale sweep is not part of "all": its 1000+-node cells cost
	// more than the whole paper reproduction, so it runs only on
	// explicit request. A -bench-out snapshot of "all" times a CI-sized
	// one instead, so the rack/spine fabric has a throughput row: 256
	// islands on the gossip overlays (Broadcast is O(P²)), one trial,
	// a 40-generation budget.
	if *exp == "all" && *benchOut != "" {
		sopts := opts
		sopts.Trials, sopts.SyncGens = 1, 40
		nodes := []int{256}
		topos := []ga.Topology{ga.GossipRing, ga.GossipRandom, ga.GossipClustered}
		run("Scale sweep (256 nodes)", exper.ScaleSweepCells(sopts, nodes, topos), func() error {
			_, err := exper.ScaleSweep(os.Stdout, sopts, nodes, topos)
			return err
		})
		// The graph sweep is nscc-graph's; the snapshot times that
		// command's default run, the standard topology matrix at 4
		// partitions, so the graph kernels have a throughput row too.
		run("Graph sweep", exper.GraphSweepCells(opts, len(exper.GraphSweepSpecs)), func() error {
			_, err := exper.GraphSweep(os.Stdout, opts, nil, 4)
			return err
		})
	}
	if *exp == "scale" {
		run("Scale sweep", exper.ScaleSweepCells(opts, nodes, topos), func() error {
			rows, err := exper.ScaleSweep(os.Stdout, opts, nodes, topos)
			if err != nil {
				return err
			}
			return f.WriteCSV("scalesweep.csv", func(w io.Writer) error {
				return exper.WriteScaleRowsCSV(w, rows)
			})
		})
	}

	cli.ExitIf(f.CloseStore(), 1)

	if *benchOut != "" {
		fmt.Println("running microbenchmarks...")
		for _, m := range benchio.StandardMicros() {
			snap.RunMicro(m.Name, m.Fn)
		}
		if err := benchio.WriteFile(*benchOut, snap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchOut)
	}
}

// knownExperiment reports whether -exp names an experiment. -exp micro
// runs only the standard DES microbenchmarks — the machine-independent
// allocs/op column is what CI's perf gate compares against the
// committed baseline, so a fresh run must not cost a whole sweep.
func knownExperiment(exp string) bool {
	switch exp {
	case "all", "table1", "table2", "fig1", "fig2", "fig3", "fig4", "agesweep", "scale", "micro":
		return true
	}
	return false
}

// startProfiles begins a CPU profile at PREFIX.cpu.pprof and returns a
// stop function that ends it and writes the final heap profile to
// PREFIX.heap.pprof. Host-side observability only: the simulated runs
// are untouched, so output bytes are identical with or without it.
func startProfiles(prefix string) (stop func(), err error) {
	cpuPath := prefix + ".cpu.pprof"
	cpuF, err := os.Create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("-profile-out: %w", err)
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, fmt.Errorf("-profile-out: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := cpuF.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		heapPath := prefix + ".heap.pprof"
		heapF, err := os.Create(heapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		runtime.GC() // settle the heap so the profile shows live objects, not transients
		if err := pprof.Lookup("allocs").WriteTo(heapF, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		if err := heapF.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		fmt.Fprintf(os.Stderr, "-- profiles: %s, %s\n", cpuPath, heapPath)
	}, nil
}

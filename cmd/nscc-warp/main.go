// Command nscc-warp visualizes the paper's warp network-load metric
// (§4.3) over time: it runs an island-GA configuration under each
// coherence discipline and renders each run's per-window warp as a
// sparkline, making the onset of network instability under uncontrolled
// asynchrony directly visible.
//
//	nscc-warp -procs 16 -gens 150 [-load 2e6]
//	          [-trace-out warp.trace.json] [-metrics-out warp.metrics.json] [-http :8080]
//
// -trace-out records the gr(age=10) run (the representative bounded-
// staleness configuration) as Chrome trace_event JSON; -metrics-out
// writes every run's telemetry — including the windowed simulated-time
// series — as one JSON object keyed by run name.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/metrics"
	"nscc/internal/obs"
	"nscc/internal/report"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/traceio"
	"nscc/internal/tseries"
)

func main() {
	var (
		fnNo     = flag.Int("func", 1, "test function number (1..8)")
		procs    = flag.Int("procs", 16, "number of islands / processors")
		gens     = flag.Int64("gens", 150, "generation budget")
		load     = flag.Float64("load", 0, "background loader rate in bits/s")
		seed     = flag.Int64("seed", 1, "random seed")
		faultsF  = flag.String("faults", "", "apply the fault plan in this JSON file to the simulated cluster")
		reliable = flag.Bool("reliable", false, "use sequence-numbered ack/retransmit message delivery")
		readTo   = flag.Duration("read-timeout", 0, "bound Global_Read blocking in virtual time (e.g. 50ms; 0 = wait forever)")
		simRace  = flag.Bool("simrace", false, "classify every cross-process read with the simulated-time race checker")
		trOut    = flag.String("trace-out", "", "write the gr(age=10) run's Chrome trace_event JSON to this file")
		metOut   = flag.String("metrics-out", "", "write every run's telemetry JSON (keyed by run name) to this file")
		httpAddr = flag.String("http", "", "serve the live status page, OpenMetrics /metrics, and /debug/pprof on this address (e.g. :8080); strictly observer-side, results are unchanged")
	)
	flag.Parse()
	if err := checkRun(*fnNo, *procs, *gens, *readTo); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := (cluster.Spec{LoaderBps: *load}).Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "-load: %v\n", err)
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

	var srv *obs.Server
	if *httpAddr != "" {
		var err error
		srv, err = obs.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "live status on http://%s/ (/metrics, /debug/pprof/)\n", srv.Addr())
	}

	fn := functions.ByNo(*fnNo)
	par := ga.DeJongParams()
	calib := ga.DefaultCalibration()
	base := ga.IslandConfig{
		Fn: fn, Par: par, P: *procs,
		FixedGens: *gens, MinGens: *gens, MaxGens: 4 * *gens,
		Seed: *seed, Calib: calib, LoaderBps: *load,
		Options: cluster.Options{
			Faults:      plan,
			Reliable:    *reliable,
			ReadTimeout: sim.Duration(readTo.Nanoseconds()),
			RaceCheck:   *simRace,
		},
	}

	// Series recording (and the telemetry artifact) only when the data
	// leaves the process.
	record := *metOut != "" || srv != nil
	telem := map[string]*metrics.Telemetry{}
	publish := func(name string, r ga.IslandResult) {
		if !record {
			return
		}
		telem[name] = r.Telemetry
		if srv != nil {
			srv.PublishTelemetry(name, r.Telemetry)
		}
	}

	syncCfg := base
	syncCfg.Mode = core.Sync
	if record {
		syncCfg.Series = tseries.NewSet(tseries.DefaultWindow)
	}
	syncRes, err := ga.RunIsland(syncCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	target := syncRes.Avg
	publish("sync", syncRes)

	var rec *trace.Recorder

	fmt.Printf("warp over time (100 ms windows; scale 1..3, ▁ = stable, █ = load growing fast)\n\n")
	show("sync", syncRes)
	bars := []report.Bar{{Label: "sync", Value: syncRes.Completion.Seconds()}}
	for _, v := range []struct {
		name string
		mode core.Mode
		age  int64
	}{
		{"async", core.Async, 0},
		{"gr(age=10)", core.NonStrict, 10},
		{"gr(age=30)", core.NonStrict, 30},
	} {
		cfg := base
		cfg.Mode = v.mode
		cfg.Age = v.age
		cfg.Target = target
		if record {
			cfg.Series = tseries.NewSet(tseries.DefaultWindow)
		}
		if *trOut != "" && v.name == "gr(age=10)" {
			rec = trace.NewRecorder()
			cfg.Tracer = rec
		}
		res, err := ga.RunIsland(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		publish(v.name, res)
		show(v.name, res)
		bars = append(bars, report.Bar{Label: v.name, Value: res.Completion.Seconds()})
	}

	fmt.Println("\ncompletion time in seconds (shorter is better):")
	fmt.Print(report.BarChart(bars, 48))

	if err := traceio.WriteTrace(*trOut, rec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rec != nil {
		fmt.Printf("wrote %s (%d events)\n", *trOut, rec.Len())
	}
	if *metOut != "" {
		if err := traceio.WriteMetrics(*metOut, telem); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metOut)
	}
}

func show(name string, r ga.IslandResult) {
	spark := report.Sparkline(r.WarpWindows, 1, 3)
	if len(spark) > 72 {
		spark = spark[:72*3] // runes are 3 bytes; keep ~72 glyphs
	}
	fmt.Printf("%-11s mean=%.2f max=%.2f  %s\n", name, r.WarpMean, r.WarpMax, spark)
	if rt := r.Telemetry.Races; rt != nil {
		fmt.Printf("%-11s   simrace: reads=%d synchronized=%d tolerated-stale=%d unbounded=%d\n",
			"", rt.Reads, rt.Synchronized, rt.ToleratedStale, rt.Unbounded)
	}
}

// checkRun rejects flag values no run can use, before anything runs.
func checkRun(fnNo, procs int, gens int64, readTo time.Duration) error {
	switch {
	case fnNo < 1 || fnNo > 8:
		return fmt.Errorf("-func %d: want a Table 1 function, 1..8", fnNo)
	case procs < 1:
		return fmt.Errorf("-procs %d: want at least 1 processor", procs)
	case gens < 1:
		return fmt.Errorf("-gens %d: want at least 1 generation", gens)
	case readTo < 0:
		return fmt.Errorf("-read-timeout %v: want at least 0 (0 waits forever)", readTo)
	}
	return nil
}

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

	"nscc/internal/cli"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/metrics"
	"nscc/internal/report"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

func main() {
	f := cli.Register(cli.Load|cli.Func, nil)
	var (
		procs  = flag.Int("procs", 16, "number of islands / processors")
		gens   = flag.Int64("gens", 150, "generation budget")
		seed   = flag.Int64("seed", 1, "random seed")
		trOut  = flag.String("trace-out", "", "write the gr(age=10) run's Chrome trace_event JSON to this file")
		metOut = flag.String("metrics-out", "", "write every run's telemetry JSON (keyed by run name) to this file")
	)
	flag.Parse()
	cli.ExitIf(checkRun(*procs, *gens), 2)
	// The sync baseline's barrier waits on every message.
	cli.ExitIf(f.Check(true), 2)
	cli.ExitIf(f.Start(), 2)
	defer f.Close()

	fn := functions.ByNo(f.Func)
	par := ga.DeJongParams()
	calib := ga.DefaultCalibration()
	base := ga.IslandConfig{
		Fn: fn, Par: par, P: *procs,
		FixedGens: *gens, MinGens: *gens, MaxGens: 4 * *gens,
		Seed: *seed, Calib: calib, LoaderBps: f.Cluster.LoaderBps,
		Options: f.Cluster.Options,
	}

	// Series recording (and the telemetry artifact) only when the data
	// leaves the process.
	record := *metOut != "" || f.Server != nil
	telem := map[string]*metrics.Telemetry{}
	publish := func(name string, r ga.IslandResult) {
		if !record {
			return
		}
		telem[name] = r.Telemetry
		if f.Server != nil {
			f.Server.PublishTelemetry(name, r.Telemetry)
		}
	}

	syncCfg := base
	syncCfg.Mode = core.Sync
	if record {
		syncCfg.Series = tseries.NewSet(tseries.DefaultWindow)
	}
	syncRes, err := ga.RunIsland(syncCfg)
	cli.ExitIf(err, 1)
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
		cli.ExitIf(err, 1)
		publish(v.name, res)
		show(v.name, res)
		bars = append(bars, report.Bar{Label: v.name, Value: res.Completion.Seconds()})
	}

	fmt.Println("\ncompletion time in seconds (shorter is better):")
	fmt.Print(report.BarChart(bars, 48))

	cli.ExitIf(cli.WriteArtifacts(*trOut, rec, *metOut, telem), 1)
}

// maxWarpGlyphs is the widest warp sparkline show prints. A glyph is
// one window, so a longer run shows its first maxWarpGlyphs windows.
const maxWarpGlyphs = 72

// warpLine renders a run's per-window warp as a sparkline of at most
// maxWarpGlyphs glyphs.
func warpLine(windows []float64) string {
	if len(windows) > maxWarpGlyphs {
		windows = windows[:maxWarpGlyphs]
	}
	return report.Sparkline(windows, 1, 3)
}

func show(name string, r ga.IslandResult) {
	fmt.Printf("%-11s mean=%.2f max=%.2f  %s\n", name, r.WarpMean, r.WarpMax, warpLine(r.WarpWindows))
	if rt := r.Telemetry.Races; rt != nil {
		fmt.Printf("%-11s   simrace: reads=%d synchronized=%d tolerated-stale=%d unbounded=%d\n",
			"", rt.Reads, rt.Synchronized, rt.ToleratedStale, rt.Unbounded)
	}
}

// checkRun rejects values of nscc-warp's own flags no run can use,
// before anything runs.
func checkRun(procs int, gens int64) error {
	switch {
	case procs < 1:
		return fmt.Errorf("-procs %d: want at least 1 processor", procs)
	case gens < 1:
		return fmt.Errorf("-gens %d: want at least 1 generation", gens)
	}
	return nil
}

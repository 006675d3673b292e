// Command nscc-ga runs a single island-GA configuration on the
// simulated cluster and prints its result, for exploring the design
// space interactively:
//
//	nscc-ga -func 1 -procs 8 -mode global_read -age 10 -gens 200 -load 2e6
package main

import (
	"flag"
	"fmt"

	"nscc/internal/cli"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/trace"
	"nscc/internal/traceio"
	"nscc/internal/tseries"
)

func main() {
	f := cli.Register(cli.Switch|cli.Load|cli.SimRaceOut|cli.Mode|cli.Func, nil)
	var (
		procs      = flag.Int("procs", 4, "number of islands / processors")
		gens       = flag.Int64("gens", 200, "synchronous generations / quality-reference budget")
		seed       = flag.Int64("seed", 1, "random seed")
		window     = flag.Int("window", 0, "DSM write window (0 = unlimited); enables coalescing ablation")
		gray       = flag.Bool("gray", false, "use reflected Gray coding for chromosomes")
		topology   = flag.String("topology", "broadcast", "migration topology: broadcast, ring, gossip-ring, gossip-random, or gossip-clustered")
		interval   = flag.Int64("interval", 1, "migrate every N generations")
		hierFabric = flag.Bool("hier", false, "run on the hierarchical rack/spine fabric (racks of shared buses behind store-and-forward uplinks)")
		rackSize   = flag.Int("rack-size", 0, "nodes per rack bus on the hierarchical fabric (0 = default 32)")
		dynAge     = flag.Bool("dynage", false, "adapt the Global_Read age at run time")
		trOut      = flag.String("trace-out", "", "write the run's Chrome trace_event JSON to this file")
		metOut     = flag.String("metrics-out", "", "write the run's telemetry JSON to this file")
	)
	flag.Parse()

	cli.ExitIf(checkRun(*procs, *gens, *interval, *window, *rackSize, *hierFabric), 2)
	if *hierFabric {
		h := netsim.DefaultHierConfig()
		if *rackSize > 0 {
			h.RackSize = *rackSize
		}
		f.Hier = &h
	}
	topo, err := ga.ParseTopology(*topology)
	cli.ExitIf(err, 2)
	// Every run includes a Sync one (the quality target's, for the
	// other modes).
	cli.ExitIf(f.Check(true), 2)
	if *dynAge && f.Mode != core.NonStrict {
		cli.ExitIf(fmt.Errorf("-dynage with -mode %s: only a global_read run has an age to adapt", f.ModeName), 2)
	}
	cli.ExitIf(f.Start(), 2)
	defer f.Close()

	fn := functions.ByNo(f.Func)
	par := ga.DeJongParams()
	par.Gray = *gray
	calib := ga.DefaultCalibration()

	serial := ga.RunSerial(fn, par, par.N**procs, *gens, *seed, calib)
	fmt.Printf("serial: time=%v best=%.6g avg=%.6g evals=%d\n",
		serial.Time, serial.Best, serial.Avg, serial.Evals)

	fabric := f.Cluster
	cfg := ga.IslandConfig{
		Fn: fn, Par: par, P: *procs, Mode: f.Mode,
		Topology:  topo,
		FixedGens: *gens, MinGens: *gens, MaxGens: 4 * *gens,
		Seed: *seed, Calib: calib,
		Switch: fabric.Switch, Hier: fabric.Hier, LoaderBps: fabric.LoaderBps,
		Interval:   *interval,
		DynamicAge: *dynAge,
		NodeOpts:   core.Options{Window: *window, Coalesce: *window > 0},
		Options:    fabric.Options,
	}
	if f.Mode == core.NonStrict {
		cfg.Age = f.Age
	}
	if cfg.Mode != core.Sync {
		// Quality target: the synchronous run's final population average.
		syncCfg := cfg
		syncCfg.Mode = core.Sync
		syncRes, err := ga.RunIsland(syncCfg)
		cli.ExitIf(err, 1)
		cfg.Target = syncRes.Avg
		fmt.Printf("sync reference: time=%v avg=%.6g\n", syncRes.Completion, syncRes.Avg)
	}

	var rec *trace.Recorder
	if *trOut != "" {
		rec = trace.NewRecorder()
		cfg.Tracer = rec
	}
	if *metOut != "" || f.Server != nil {
		// Windowed series only matter when the telemetry leaves the
		// process (JSON artifact or the live endpoint).
		cfg.Series = tseries.NewSet(tseries.DefaultWindow)
	}
	res, err := ga.RunIsland(cfg)
	cli.ExitIf(err, 1)
	if f.Server != nil {
		f.Server.PublishTelemetry("ga", res.Telemetry)
	}
	fmt.Printf("%s: completion=%v speedup=%.2f best=%.6g avg=%.6g gens=%v\n",
		f.ModeName, res.Completion, serial.Time.Seconds()/res.Completion.Seconds(),
		res.Best, res.Avg, res.Gens)
	fmt.Printf("  optimum=%v reached-target=%v messages=%d bytes=%d\n",
		res.OptimumFound, res.ReachedTarget, res.Messages, res.NetBytes)
	fmt.Printf("  blocked=%d blocked-time=%v queue-delay=%v warp=%.2f coalesced=%d\n",
		res.Blocked, res.BlockedTime, res.QueueDelay, res.WarpMean, res.Coalesced)
	if rt := res.Telemetry.Races; rt != nil {
		fmt.Printf("  simrace: reads=%d synchronized=%d tolerated-stale=%d unbounded=%d max-lag=%d\n",
			rt.Reads, rt.Synchronized, rt.ToleratedStale, rt.Unbounded, rt.MaxLag)
	}
	if f.SimRaceOut != "" {
		cli.ExitIf(traceio.WriteMetrics(f.SimRaceOut, res.Telemetry.RaceReport()), 1)
		fmt.Printf("wrote %s\n", f.SimRaceOut)
	}
	cli.ExitIf(cli.WriteArtifacts(*trOut, rec, *metOut, res.Telemetry), 1)
}

// checkRun rejects values of nscc-ga's own flags no run can use, and
// a -rack-size the run would ignore, before anything runs.
func checkRun(procs int, gens, interval int64, window, rackSize int, hier bool) error {
	switch {
	case procs < 1:
		return fmt.Errorf("-procs %d: want at least 1 processor", procs)
	case gens < 1:
		return fmt.Errorf("-gens %d: want at least 1 generation", gens)
	case interval < 1:
		return fmt.Errorf("-interval %d: want at least 1 generation between migrations", interval)
	case window < 0:
		return fmt.Errorf("-window %d: want at least 0 (0 = unlimited)", window)
	case rackSize < 0:
		return fmt.Errorf("-rack-size %d: want at least 1 node per rack, or 0 for the default", rackSize)
	case rackSize > 0 && !hier:
		return fmt.Errorf("-rack-size %d without -hier: only the rack/spine fabric has racks", rackSize)
	}
	return nil
}

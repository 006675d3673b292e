// Command nscc-ga runs a single island-GA configuration on the
// simulated cluster and prints its result, for exploring the design
// space interactively:
//
//	nscc-ga -func 1 -procs 8 -mode global_read -age 10 -gens 200 -load 2e6
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
	"nscc/internal/netsim"
	"nscc/internal/obs"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/traceio"
	"nscc/internal/tseries"
)

func main() {
	var (
		fnNo       = flag.Int("func", 1, "test function number (1..8, Table 1)")
		procs      = flag.Int("procs", 4, "number of islands / processors")
		mode       = flag.String("mode", "global_read", "sync, async, or global_read")
		age        = flag.Int64("age", 10, "Global_Read staleness bound (generations)")
		gens       = flag.Int64("gens", 200, "synchronous generations / quality-reference budget")
		load       = flag.Float64("load", 0, "background loader rate in bits/s (0 = unloaded)")
		seed       = flag.Int64("seed", 1, "random seed")
		window     = flag.Int("window", 0, "DSM write window (0 = unlimited); enables coalescing ablation")
		gray       = flag.Bool("gray", false, "use reflected Gray coding for chromosomes")
		topology   = flag.String("topology", "broadcast", "migration topology: broadcast, ring, gossip-ring, gossip-random, or gossip-clustered")
		interval   = flag.Int64("interval", 1, "migrate every N generations")
		swFabric   = flag.Bool("switch", false, "run on the SP2-style crossbar switch instead of the Ethernet")
		hierFabric = flag.Bool("hier", false, "run on the hierarchical rack/spine fabric (racks of shared buses behind store-and-forward uplinks)")
		rackSize   = flag.Int("rack-size", 0, "nodes per rack bus on the hierarchical fabric (0 = default 32)")
		dynAge     = flag.Bool("dynage", false, "adapt the Global_Read age at run time")
		trOut      = flag.String("trace-out", "", "write the run's Chrome trace_event JSON to this file")
		metOut     = flag.String("metrics-out", "", "write the run's telemetry JSON to this file")
		faultsF    = flag.String("faults", "", "apply the fault plan in this JSON file to the simulated cluster")
		reliable   = flag.Bool("reliable", false, "use sequence-numbered ack/retransmit message delivery")
		readTo     = flag.Duration("read-timeout", 0, "bound Global_Read blocking in virtual time (e.g. 50ms; 0 = wait forever)")
		simRace    = flag.Bool("simrace", false, "classify every cross-process read with the simulated-time race checker")
		raceOut    = flag.String("simrace-out", "", "write the per-location race report JSON to this file (requires -simrace; feed it to nscc-lint -simrace-report)")
		httpAddr   = flag.String("http", "", "serve the live status page, OpenMetrics /metrics, and /debug/pprof on this address (e.g. :8080); strictly observer-side, results are unchanged")
	)
	flag.Parse()

	if *raceOut != "" && !*simRace {
		fmt.Fprintln(os.Stderr, "-simrace-out requires -simrace")
		os.Exit(2)
	}
	runMode, err := checkRun(*fnNo, *procs, *gens, *age, *rackSize, *readTo, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fabric := cluster.Spec{LoaderBps: *load}
	if *swFabric {
		sw := netsim.DefaultSwitchConfig()
		fabric.Switch = &sw
	}
	if *hierFabric {
		h := netsim.DefaultHierConfig()
		if *rackSize > 0 {
			h.RackSize = *rackSize
		}
		fabric.Hier = &h
	}
	if err := fabric.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "-load: %v\n", err)
		os.Exit(2)
	}
	topo, err := ga.ParseTopology(*topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var plan *faults.Plan
	if *faultsF != "" {
		if plan, err = faults.LoadFile(*faultsF); err != nil {
			fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
			os.Exit(2)
		}
	}
	// Every run includes a Sync one (the quality target's, for the
	// other modes), and its barrier waits forever for a lost message.
	if plan.Drops() && !*reliable {
		fmt.Fprintln(os.Stderr, "-faults: the plan drops messages, and the sync run waits forever for a lost one unless -reliable resends it")
		os.Exit(2)
	}

	var srv *obs.Server
	if *httpAddr != "" {
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
	par.Gray = *gray
	calib := ga.DefaultCalibration()

	serial := ga.RunSerial(fn, par, par.N**procs, *gens, *seed, calib)
	fmt.Printf("serial: time=%v best=%.6g avg=%.6g evals=%d\n",
		serial.Time, serial.Best, serial.Avg, serial.Evals)

	cfg := ga.IslandConfig{
		Fn: fn, Par: par, P: *procs, Mode: runMode,
		Topology:  topo,
		FixedGens: *gens, MinGens: *gens, MaxGens: 4 * *gens,
		Seed: *seed, Calib: calib,
		Switch: fabric.Switch, Hier: fabric.Hier, LoaderBps: fabric.LoaderBps,
		Interval:   *interval,
		DynamicAge: *dynAge,
		NodeOpts:   core.Options{Window: *window, Coalesce: *window > 0},
		Options: cluster.Options{
			Faults:      plan,
			Reliable:    *reliable,
			ReadTimeout: sim.Duration(readTo.Nanoseconds()),
			RaceCheck:   *simRace,
		},
	}
	if runMode == core.NonStrict {
		cfg.Age = *age
	}
	if cfg.Mode != core.Sync {
		// Quality target: the synchronous run's final population average.
		syncCfg := cfg
		syncCfg.Mode = core.Sync
		syncRes, err := ga.RunIsland(syncCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Target = syncRes.Avg
		fmt.Printf("sync reference: time=%v avg=%.6g\n", syncRes.Completion, syncRes.Avg)
	}

	var rec *trace.Recorder
	if *trOut != "" {
		rec = trace.NewRecorder()
		cfg.Tracer = rec
	}
	if *metOut != "" || srv != nil {
		// Windowed series only matter when the telemetry leaves the
		// process (JSON artifact or the live endpoint).
		cfg.Series = tseries.NewSet(tseries.DefaultWindow)
	}
	res, err := ga.RunIsland(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if srv != nil {
		srv.PublishTelemetry("ga", res.Telemetry)
	}
	fmt.Printf("%s: completion=%v speedup=%.2f best=%.6g avg=%.6g gens=%v\n",
		*mode, res.Completion, serial.Time.Seconds()/res.Completion.Seconds(),
		res.Best, res.Avg, res.Gens)
	fmt.Printf("  optimum=%v reached-target=%v messages=%d bytes=%d\n",
		res.OptimumFound, res.ReachedTarget, res.Messages, res.NetBytes)
	fmt.Printf("  blocked=%d blocked-time=%v queue-delay=%v warp=%.2f coalesced=%d\n",
		res.Blocked, res.BlockedTime, res.QueueDelay, res.WarpMean, res.Coalesced)
	if rt := res.Telemetry.Races; rt != nil {
		fmt.Printf("  simrace: reads=%d synchronized=%d tolerated-stale=%d unbounded=%d max-lag=%d\n",
			rt.Reads, rt.Synchronized, rt.ToleratedStale, rt.Unbounded, rt.MaxLag)
	}
	if *raceOut != "" {
		if err := traceio.WriteMetrics(*raceOut, res.Telemetry.RaceReport()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *raceOut)
	}
	if err := traceio.WriteTrace(*trOut, rec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rec != nil {
		fmt.Printf("wrote %s (%d events)\n", *trOut, rec.Len())
	}
	if err := traceio.WriteMetrics(*metOut, res.Telemetry); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *metOut != "" {
		fmt.Printf("wrote %s\n", *metOut)
	}
}

// checkRun rejects flag values no run can use, before anything runs,
// and returns the coherence mode -mode names.
func checkRun(fnNo, procs int, gens, age int64, rackSize int, readTo time.Duration, mode string) (core.Mode, error) {
	switch {
	case fnNo < 1 || fnNo > 8:
		return 0, fmt.Errorf("-func %d: want a Table 1 function, 1..8", fnNo)
	case procs < 1:
		return 0, fmt.Errorf("-procs %d: want at least 1 processor", procs)
	case gens < 1:
		return 0, fmt.Errorf("-gens %d: want at least 1 generation", gens)
	case age < 0:
		return 0, fmt.Errorf("-age %d: want a staleness bound of at least 0 generations", age)
	case rackSize < 0:
		return 0, fmt.Errorf("-rack-size %d: want at least 1 node per rack, or 0 for the default", rackSize)
	case readTo < 0:
		return 0, fmt.Errorf("-read-timeout %v: want at least 0 (0 waits forever)", readTo)
	}
	switch mode {
	case "sync":
		return core.Sync, nil
	case "async":
		return core.Async, nil
	case "global_read":
		return core.NonStrict, nil
	}
	return 0, fmt.Errorf("-mode %q: want sync, async or global_read", mode)
}

// Command nscc-bayes runs a single parallel logic-sampling
// configuration on the simulated cluster and prints its result:
//
//	nscc-bayes -net Hailfinder -procs 2 -mode global_read -age 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nscc/internal/bayes"
	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/obs"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/traceio"
	"nscc/internal/tseries"
)

func main() {
	var (
		netName  = flag.String("net", "A", "belief network: A, AA, C, Hailfinder, or figure1")
		procs    = flag.Int("procs", 2, "number of processors")
		mode     = flag.String("mode", "global_read", "sync, async, or global_read")
		age      = flag.Int64("age", 10, "Global_Read staleness bound (iterations)")
		prec     = flag.Float64("prec", 0.01, "90% CI half-width stopping target")
		load     = flag.Float64("load", 0, "background loader rate in bits/s")
		seed     = flag.Int64("seed", 1, "random seed")
		maxIt    = flag.Int64("maxiters", 200000, "iteration safety cap")
		randDef  = flag.Bool("randdefaults", false, "ablation: arbitrary default values instead of most-probable")
		algo     = flag.String("algo", "ls", "serial baseline algorithm: ls (logic sampling) or lw (likelihood weighting)")
		swFabric = flag.Bool("switch", false, "run on the SP2-style crossbar switch instead of the Ethernet")
		batch    = flag.Int64("batch", 0, "update-batching depth (0 = mode default)")
		trOut    = flag.String("trace-out", "", "write the run's Chrome trace_event JSON to this file")
		metOut   = flag.String("metrics-out", "", "write the run's telemetry JSON to this file")
		faultsF  = flag.String("faults", "", "apply the fault plan in this JSON file to the simulated cluster")
		reliable = flag.Bool("reliable", false, "use sequence-numbered ack/retransmit message delivery")
		readTo   = flag.Duration("read-timeout", 0, "bound Global_Read blocking in virtual time (e.g. 50ms; 0 = wait forever)")
		simRace  = flag.Bool("simrace", false, "classify every cross-process read with the simulated-time race checker")
		httpAddr = flag.String("http", "", "serve the live status page, OpenMetrics /metrics, and /debug/pprof on this address (e.g. :8080); strictly observer-side, results are unchanged")
	)
	flag.Parse()

	runMode, err := checkRun(*procs, *maxIt, *age, *readTo, *mode, *algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fabric := cluster.Spec{LoaderBps: *load}
	if *swFabric {
		sw := netsim.DefaultSwitchConfig()
		fabric.Switch = &sw
	}
	if err := fabric.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "-load: %v\n", err)
		os.Exit(2)
	}
	var faultPlan *faults.Plan
	if *faultsF != "" {
		if faultPlan, err = faults.LoadFile(*faultsF); err != nil {
			fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
			os.Exit(2)
		}
	}

	var bn *bayes.Network
	if *netName == "figure1" {
		bn = bayes.Figure1()
	} else {
		for _, cand := range bayes.Table2Networks() {
			if cand.Name == *netName {
				bn = cand
			}
		}
	}
	if bn == nil {
		fmt.Fprintf(os.Stderr, "unknown network %q\n", *netName)
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

	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()

	serial := bayes.InferSerial(bn, q, *prec, *seed, calib, *maxIt)
	switch *algo {
	case "ls":
		fmt.Printf("serial (logic sampling): time=%v prob=%.4f (+-%.4f) iters=%d accepted=%d\n",
			serial.Time, serial.Prob, serial.HalfWidth, serial.Iters, serial.Accepted)
	case "lw":
		lw := bayes.InferSerialLW(bn, q, *prec, *seed, calib, *maxIt)
		fmt.Printf("serial (likelihood weighting): time=%v prob=%.4f (+-%.4f) iters=%d effN=%.0f\n",
			lw.Time, lw.Prob, lw.HalfWidth, lw.Iters, lw.EffN)
		fmt.Printf("serial (logic sampling):       time=%v prob=%.4f (+-%.4f) iters=%d\n",
			serial.Time, serial.Prob, serial.HalfWidth, serial.Iters)
	}

	cfg := bayes.ParallelConfig{
		Net: bn, Query: q, P: *procs, Mode: runMode,
		Age: *age, Precision: *prec, MaxIters: *maxIt,
		Seed: *seed, Calib: calib,
		SwitchCfg: fabric.Switch, LoaderBps: fabric.LoaderBps,
		RandomDefaults: *randDef,
		Batch:          *batch,
		Options: cluster.Options{
			Faults:      faultPlan,
			Reliable:    *reliable,
			ReadTimeout: sim.Duration(readTo.Nanoseconds()),
			RaceCheck:   *simRace,
		},
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
	res, err := bayes.RunParallel(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if srv != nil {
		srv.PublishTelemetry("bayes", res.Telemetry)
	}
	fmt.Printf("%s: completion=%v speedup=%.2f prob=%.4f (+-%.4f) iters=%d accepted=%d converged=%v\n",
		*mode, res.Completion, serial.Time.Seconds()/res.Completion.Seconds(),
		res.Prob, res.HalfWidth, res.Iters, res.Accepted, res.ReachedPrecision)
	fmt.Printf("  edge-cut=%d gambles=%d conflicts=%d rollbacks=%d replayed=%d\n",
		res.EdgeCut, res.Gambles, res.Conflicts, res.Rollbacks, res.Replayed)
	fmt.Printf("  messages=%d bytes=%d blocked=%d blocked-time=%v warp=%.2f\n",
		res.Messages, res.NetBytes, res.Blocked, res.BlockedTime, res.WarpMean)
	if rt := res.Telemetry.Races; rt != nil {
		fmt.Printf("  simrace: reads=%d synchronized=%d tolerated-stale=%d unbounded=%d max-lag=%d\n",
			rt.Reads, rt.Synchronized, rt.ToleratedStale, rt.Unbounded, rt.MaxLag)
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
func checkRun(procs int, maxIters, age int64, readTo time.Duration, mode, algo string) (core.Mode, error) {
	switch {
	case procs < 1:
		return 0, fmt.Errorf("-procs %d: want at least 1 processor", procs)
	case maxIters < 1:
		return 0, fmt.Errorf("-maxiters %d: want at least 1 iteration", maxIters)
	case age < 0:
		return 0, fmt.Errorf("-age %d: want a staleness bound of at least 0 iterations", age)
	case readTo < 0:
		return 0, fmt.Errorf("-read-timeout %v: want at least 0 (0 waits forever)", readTo)
	case algo != "ls" && algo != "lw":
		return 0, fmt.Errorf("-algo %q: want ls or lw", algo)
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

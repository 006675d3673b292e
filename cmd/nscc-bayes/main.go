// Command nscc-bayes runs a single parallel logic-sampling
// configuration on the simulated cluster and prints its result:
//
//	nscc-bayes -net Hailfinder -procs 2 -mode global_read -age 10
package main

import (
	"flag"
	"fmt"
	"os"

	"nscc/internal/bayes"
	"nscc/internal/cli"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

func main() {
	f := cli.Register(cli.Switch|cli.Load|cli.Mode, map[string]string{
		"age": "Global_Read staleness bound (iterations)",
	})
	var (
		netName = flag.String("net", "A", "belief network: A, AA, C, Hailfinder, or figure1")
		procs   = flag.Int("procs", 2, "number of processors")
		prec    = flag.Float64("prec", 0.01, "90% CI half-width stopping target")
		seed    = flag.Int64("seed", 1, "random seed")
		maxIt   = flag.Int64("maxiters", 200000, "iteration safety cap")
		randDef = flag.Bool("randdefaults", false, "ablation: arbitrary default values instead of most-probable")
		algo    = flag.String("algo", "ls", "serial baseline algorithm: ls (logic sampling) or lw (likelihood weighting)")
		batch   = flag.Int64("batch", 0, "update-batching depth (0 = mode default)")
		trOut   = flag.String("trace-out", "", "write the run's Chrome trace_event JSON to this file")
		metOut  = flag.String("metrics-out", "", "write the run's telemetry JSON to this file")
	)
	flag.Parse()

	cli.ExitIf(checkRun(*procs, *maxIt, *prec, *batch, *algo), 2)
	// Only the -mode run runs: async runs and timed reads go on without
	// a lost message.
	cli.ExitIf(f.Check(false), 2)

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
	cli.ExitIf(f.Start(), 2)
	defer f.Close()

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
		Net: bn, Query: q, P: *procs, Mode: f.Mode,
		Age: f.Age, Precision: *prec, MaxIters: *maxIt,
		Seed: *seed, Calib: calib,
		SwitchCfg: f.Cluster.Switch, LoaderBps: f.Cluster.LoaderBps,
		RandomDefaults: *randDef,
		Batch:          *batch,
		Options:        f.Cluster.Options,
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
	res, err := bayes.RunParallel(cfg)
	cli.ExitIf(err, 1)
	if f.Server != nil {
		f.Server.PublishTelemetry("bayes", res.Telemetry)
	}
	fmt.Printf("%s: completion=%v speedup=%.2f prob=%.4f (+-%.4f) iters=%d accepted=%d converged=%v\n",
		f.ModeName, res.Completion, serial.Time.Seconds()/res.Completion.Seconds(),
		res.Prob, res.HalfWidth, res.Iters, res.Accepted, res.ReachedPrecision)
	fmt.Printf("  edge-cut=%d gambles=%d conflicts=%d rollbacks=%d replayed=%d\n",
		res.EdgeCut, res.Gambles, res.Conflicts, res.Rollbacks, res.Replayed)
	fmt.Printf("  messages=%d bytes=%d blocked=%d blocked-time=%v warp=%.2f\n",
		res.Messages, res.NetBytes, res.Blocked, res.BlockedTime, res.WarpMean)
	if rt := res.Telemetry.Races; rt != nil {
		fmt.Printf("  simrace: reads=%d synchronized=%d tolerated-stale=%d unbounded=%d max-lag=%d\n",
			rt.Reads, rt.Synchronized, rt.ToleratedStale, rt.Unbounded, rt.MaxLag)
	}
	cli.ExitIf(cli.WriteArtifacts(*trOut, rec, *metOut, res.Telemetry), 1)
}

// checkRun rejects values of nscc-bayes's own flags no run can use,
// before anything runs.
func checkRun(procs int, maxIters int64, prec float64, batch int64, algo string) error {
	switch {
	case procs < 1:
		return fmt.Errorf("-procs %d: want at least 1 processor", procs)
	case maxIters < 1:
		return fmt.Errorf("-maxiters %d: want at least 1 iteration", maxIters)
	case !(prec > 0):
		// NaN or at most 0: no run ever gets that precise, so each would
		// only stop at -maxiters.
		return fmt.Errorf("-prec %v: want a half-width above 0", prec)
	case batch < 0:
		return fmt.Errorf("-batch %d: want 0 (the mode's default) or more iterations", batch)
	case algo != "ls" && algo != "lw":
		return fmt.Errorf("-algo %q: want ls or lw", algo)
	}
	return nil
}

// End-to-end integration tests: each drives a full experiment path
// across every layer of the stack (engine → fabric → messaging → DSM →
// application → statistics) and asserts the paper-level invariants that
// no single package can check alone.
package nscc

import (
	"math"
	"testing"

	"nscc/internal/bayes"
	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/exper"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/trace"
)

// TestEndToEndGAOrdering runs the three GA disciplines through the full
// stack and asserts the cross-variant ordering the evaluation depends
// on.
func TestEndToEndGAOrdering(t *testing.T) {
	par := ga.DeJongParams()
	calib := ga.DefaultCalibration()
	const seed, gens = 41, 100
	serial := ga.RunSerial(functions.F1, par, par.N*4, gens, seed, calib)

	base := ga.IslandConfig{
		Fn: functions.F1, Par: par, P: 4,
		FixedGens: gens, MinGens: gens, MaxGens: 4 * gens,
		Seed: seed, Calib: calib,
	}
	syncCfg := base
	syncCfg.Mode = core.Sync
	sync, err := ga.RunIsland(syncCfg)
	if err != nil {
		t.Fatal(err)
	}
	grCfg := base
	grCfg.Mode = core.NonStrict
	grCfg.Age = 10
	grCfg.Target = sync.Avg
	gr, err := ga.RunIsland(grCfg)
	if err != nil {
		t.Fatal(err)
	}

	if sync.Completion >= serial.Time {
		t.Errorf("4-processor sync (%v) slower than serial (%v)", sync.Completion, serial.Time)
	}
	if gr.Completion >= sync.Completion {
		t.Errorf("Global_Read (%v) not faster than sync (%v)", gr.Completion, sync.Completion)
	}
	if !gr.ReachedTarget {
		t.Errorf("Global_Read failed the quality target: %+v", gr)
	}
	// Quality parity: both reach the encoding optimum on F1.
	if !sync.OptimumFound || !gr.OptimumFound {
		t.Errorf("optimum not found: sync=%v gr=%v", sync.OptimumFound, gr.OptimumFound)
	}
}

// TestEndToEndSwitchBeatsBusForSync runs the same synchronous GA on
// both fabrics: the crossbar switch must beat the shared bus, and the
// gap must come from communication (identical generation counts).
func TestEndToEndSwitchBeatsBusForSync(t *testing.T) {
	par := ga.DeJongParams()
	cfg := ga.IslandConfig{
		Fn: functions.F1, Par: par, P: 8, Mode: core.Sync,
		FixedGens: 60, Seed: 5, Calib: ga.DefaultCalibration(),
	}
	bus, err := ga.RunIsland(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := netsim.DefaultSwitchConfig()
	cfg.Switch = &sw
	fast, err := ga.RunIsland(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Completion >= bus.Completion {
		t.Fatalf("switch (%v) not faster than bus (%v)", fast.Completion, bus.Completion)
	}
	for i := range bus.Gens {
		if bus.Gens[i] != fast.Gens[i] {
			t.Fatalf("generation counts differ across fabrics: %v vs %v", bus.Gens, fast.Gens)
		}
	}
}

// TestEndToEndInferenceAgreement runs serial logic sampling, serial
// likelihood weighting, and the 2-processor Global_Read sampler on the
// same network and checks the three estimates agree.
func TestEndToEndInferenceAgreement(t *testing.T) {
	bn := bayes.Table2Networks()[1]
	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()
	const seed, prec = 77, 0.02

	ls := bayes.InferSerial(bn, q, prec, seed, calib, 200000)
	lw := bayes.InferSerialLW(bn, q, prec, seed, calib, 200000)
	par, err := bayes.RunParallel(bayes.ParallelConfig{
		Net: bn, Query: q, P: 2, Mode: core.NonStrict, Age: 10,
		Precision: prec, MaxIters: 200000, Seed: seed, Calib: calib,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Converged || !lw.Converged || !par.ReachedPrecision {
		t.Fatalf("convergence: ls=%v lw=%v par=%v", ls.Converged, lw.Converged, par.ReachedPrecision)
	}
	if d := math.Abs(ls.Prob - lw.Prob); d > 3*prec {
		t.Errorf("LS %v vs LW %v differ by %v", ls.Prob, lw.Prob, d)
	}
	if d := math.Abs(ls.Prob - par.Prob); d > 4*prec {
		t.Errorf("serial %v vs parallel %v differ by %v", ls.Prob, par.Prob, d)
	}
}

// TestEndToEndExperimentDeterminism runs a full experiment cell twice
// and requires bit-identical results — the property every EXPERIMENTS.md
// number relies on.
func TestEndToEndExperimentDeterminism(t *testing.T) {
	opts := exper.Quick()
	opts.Trials = 1
	opts.SyncGens = 40
	a, err := exper.GACell(functions.F3, 2, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exper.GACell(functions.F3, 2, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range exper.Variants() {
		if a.Speedup[v] != b.Speedup[v] {
			t.Fatalf("experiment cell not deterministic at %v", v)
		}
	}
}

// TestEndToEndChaosGA drives the full stack — engine, fault injector,
// reliable transport, DSM with bounded reads, application, telemetry,
// tracing — under a seeded random fault plan and asserts the
// cross-layer contracts: the run completes, the staleness histogram
// never exceeds the age bound, the violation counter reconciles across
// telemetry layers, and the fault events surface in the trace stream.
func TestEndToEndChaosGA(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
		Mode: core.NonStrict, Age: 10,
		FixedGens: 40, MinGens: 40, MaxGens: 160,
		Seed: 23, Calib: ga.DefaultCalibration(),
		Options: cluster.Options{
			Faults:      faults.RandomPlan(23, 4, 2.0),
			Reliable:    true,
			ReadTimeout: 50 * sim.Millisecond,
			Tracer:      rec,
		},
	}
	res, err := ga.RunIsland(cfg)
	if err != nil {
		t.Fatalf("chaos run did not complete: %v", err)
	}
	if max := res.Telemetry.Staleness.Max; max > cfg.Age {
		t.Errorf("staleness bound broken end to end: observed %d > age %d", max, cfg.Age)
	}
	var perTask int64
	for _, tt := range res.Telemetry.Tasks {
		perTask += tt.ReadTimeouts
	}
	if perTask != res.Telemetry.StalenessViolations {
		t.Errorf("StalenessViolations %d != per-task sum %d",
			res.Telemetry.StalenessViolations, perTask)
	}
	if n := rec.CountBy(func(ev *trace.Event) bool { return ev.Pid == trace.PidFaults }); n == 0 {
		t.Error("no fault events reached the trace stream")
	}
}

// TestEndToEndLoaderDegradesSync is the Figure 4 mechanism end to end:
// fixed work, rising background load, monotone-ish completion times.
func TestEndToEndLoaderDegradesSync(t *testing.T) {
	completion := func(load float64) float64 {
		cfg := ga.IslandConfig{
			Fn: functions.F1, Par: ga.DeJongParams(), P: 4, Mode: core.Sync,
			FixedGens: 80, Seed: 13, Calib: ga.DefaultCalibration(), LoaderBps: load,
		}
		res, err := ga.RunIsland(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Completion.Seconds()
	}
	unloaded := completion(0)
	loaded := completion(3e6)
	if loaded <= unloaded {
		t.Fatalf("3 Mbps background load did not slow the sync GA: %v vs %v", loaded, unloaded)
	}
}

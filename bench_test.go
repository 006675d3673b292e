// Benchmarks, one per table and figure of the paper plus the ablations
// DESIGN.md calls out. Each benchmark runs a scaled-down instance of
// the corresponding experiment per iteration and reports the
// shape-defining quantities (speedups, rollback counts, message
// counts) via b.ReportMetric, so `go test -bench=. -benchmem` both
// exercises every experiment path and prints the comparison the paper's
// evaluation makes. The paper-scale sweeps are driven by cmd/nscc-bench.
package nscc

import (
	"math/rand"
	"testing"

	"nscc/internal/bayes"
	"nscc/internal/core"
	"nscc/internal/exper"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/partition"
	"nscc/internal/trace"
	"nscc/internal/xrand"
)

// benchOpts is the reduced profile the benchmarks run at.
func benchOpts() exper.Options {
	opts := exper.Quick()
	opts.Trials = 1
	opts.SyncGens = 80
	opts.Procs = []int{4}
	opts.Precision = 0.03
	return opts
}

// BenchmarkTable1Functions evaluates the full eight-function test bed
// (Table 1) at random points — the GA's inner loop.
func BenchmarkTable1Functions(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fns := functions.All()
	chromos := make([]functions.Chrom, len(fns))
	maxVars := 0
	for i, fn := range fns {
		maxVars = max(maxVars, fn.Vars)
		for j := 0; j < fn.TotalBits(); j++ {
			if rng.Intn(2) == 1 {
				chromos[i].Flip(j)
			}
		}
	}
	noise := xrand.New(1)
	scratch := make([]float64, maxVars)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, fn := range fns {
			_ = fn.EvalBitsInto(scratch, &chromos[j], false, noise)
		}
	}
}

// BenchmarkTable2Networks regenerates Table 2: network construction,
// 2-way partitioning (edge-cut), and uniprocessor inference.
func BenchmarkTable2Networks(b *testing.B) {
	var lastCut int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		for _, bn := range bayes.Table2Networks() {
			parts := partition.Bisect(bn.Graph(), rng)
			lastCut = partition.EdgeCut(bn.Graph(), parts)
			q := bayes.DefaultQuery(bn)
			bayes.InferSerial(bn, q, 0.05, int64(i), bayes.DefaultCalibration(), 3000)
		}
	}
	b.ReportMetric(float64(lastCut), "edgecut")
}

// BenchmarkFigure1Inference runs serial logic sampling on the paper's
// example network against exact enumeration.
func BenchmarkFigure1Inference(b *testing.B) {
	bn := bayes.Figure1()
	q := bayes.Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}}
	exact := bayes.Exact(bn, q)
	var got float64
	for i := 0; i < b.N; i++ {
		res := bayes.InferSerial(bn, q, 0.02, int64(i+1), bayes.DefaultCalibration(), 200000)
		got = res.Prob
	}
	b.ReportMetric(exact, "exact")
	b.ReportMetric(got, "sampled")
}

// BenchmarkFigure2GA runs one cell of Figure 2 (GA speedups, unloaded
// network, function 1, 4 processors, all variants) per iteration.
func BenchmarkFigure2GA(b *testing.B) {
	opts := benchOpts()
	var row exper.GARow
	for i := 0; i < b.N; i++ {
		opts.Seed = 2000 + int64(i)
		r, err := exper.GACell(functions.F1, 4, opts, 0)
		if err != nil {
			b.Fatal(err)
		}
		row = r
	}
	b.ReportMetric(row.Speedup[exper.Variant{Mode: core.Sync}], "sync-speedup")
	b.ReportMetric(row.Speedup[exper.Variant{Mode: core.Async}], "async-speedup")
	b.ReportMetric(row.BestGR, "best-gr-speedup")
}

// BenchmarkFigure3Bayes runs one network of Figure 3 (2-processor
// belief-network speedups, sync vs async vs Global_Read) per iteration.
func BenchmarkFigure3Bayes(b *testing.B) {
	bn := bayes.Table2Networks()[3]
	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()
	speed := map[string]float64{}
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		serial := bayes.InferSerial(bn, q, 0.03, seed, calib, 40000)
		for _, v := range []struct {
			name string
			mode core.Mode
			age  int64
		}{{"sync", core.Sync, 0}, {"async", core.Async, 0},
			{"gr0", core.NonStrict, 0}, {"gr10", core.NonStrict, 10}} {
			res, err := bayes.RunParallel(bayes.ParallelConfig{
				Net: bn, Query: q, P: 2, Mode: v.mode, Age: v.age,
				Precision: 0.03, MaxIters: 40000, Seed: seed, Calib: calib,
			})
			if err != nil {
				b.Fatal(err)
			}
			speed[v.name] = serial.Time.Seconds() / res.Completion.Seconds()
		}
	}
	b.ReportMetric(speed["sync"], "sync-speedup")
	b.ReportMetric(speed["async"], "async-speedup")
	b.ReportMetric(speed["gr0"], "gr0-speedup")
	b.ReportMetric(speed["gr10"], "gr10-speedup")
}

// BenchmarkFigure4Loaded runs one cell of Figure 4 (GA on 4 processors
// with a 2 Mbps background loader) per iteration.
func BenchmarkFigure4Loaded(b *testing.B) {
	opts := benchOpts()
	var row exper.GARow
	for i := 0; i < b.N; i++ {
		opts.Seed = 3000 + int64(i)
		r, err := exper.GACell(functions.F1, 4, opts, 2e6)
		if err != nil {
			b.Fatal(err)
		}
		row = r
	}
	b.ReportMetric(row.Speedup[exper.Variant{Mode: core.Sync}], "sync-speedup")
	b.ReportMetric(row.BestGR, "best-gr-speedup")
}

// gaBenchConfig is a small Global_Read island-GA run used by the
// ablation benchmarks.
func gaBenchConfig(seed int64) ga.IslandConfig {
	return ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
		Mode: core.NonStrict, Age: 10,
		FixedGens: 80, MinGens: 80, MaxGens: 320, Target: 0.3,
		Seed: seed, Calib: ga.DefaultCalibration(),
	}
}

// BenchmarkTracerNil is the tracing-off baseline for the observability
// layer: the same Global_Read GA run as BenchmarkTracerRecording, with
// no tracer installed. The pair bounds the cost of the instrumentation;
// the nil-tracer run must not be measurably slower than it was before
// the trace layer existed (every emission site is one guarded branch).
func BenchmarkTracerNil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ga.RunIsland(gaBenchConfig(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerRecording runs the same configuration with a recording
// tracer attached, reporting the event volume one run produces.
func BenchmarkTracerRecording(b *testing.B) {
	rec := trace.NewRecorder()
	events := 0
	for i := 0; i < b.N; i++ {
		rec.Reset()
		cfg := gaBenchConfig(int64(i + 1))
		cfg.Tracer = rec
		if _, err := ga.RunIsland(cfg); err != nil {
			b.Fatal(err)
		}
		events = rec.Len()
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkAblationRequestRead compares the paper's blocking-wait
// Global_Read against the request-based variant it rejects for message
// economy (§2).
func BenchmarkAblationRequestRead(b *testing.B) {
	var blocking, requesting ga.IslandResult
	for i := 0; i < b.N; i++ {
		cfg := gaBenchConfig(int64(i + 1))
		r1, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.NodeOpts.RequestRead = true
		r2, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		blocking, requesting = r1, r2
	}
	b.ReportMetric(float64(blocking.Messages), "blocking-msgs")
	b.ReportMetric(float64(requesting.Messages), "request-msgs")
}

// BenchmarkAblationCoalescing measures the write-window coalescing
// option (Mermera-style buffering) against eager sends.
func BenchmarkAblationCoalescing(b *testing.B) {
	var plain, coalescing ga.IslandResult
	for i := 0; i < b.N; i++ {
		cfg := gaBenchConfig(int64(i + 1))
		// Congest the bus so the write window actually backs up.
		cfg.LoaderBps = 6e6
		cfg.Mode = core.Async
		r1, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.NodeOpts.Window = 1
		cfg.NodeOpts.Coalesce = true
		r2, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		plain, coalescing = r1, r2
	}
	b.ReportMetric(float64(plain.Messages), "eager-msgs")
	b.ReportMetric(float64(coalescing.Messages), "coalesced-msgs")
	b.ReportMetric(float64(coalescing.Coalesced), "writes-coalesced")
}

// BenchmarkAblationBatching sweeps the inference engine's
// update-batching depth: batching several iterations per interface
// message is what amortizes the Ethernet's per-message overhead (§1).
func BenchmarkAblationBatching(b *testing.B) {
	bn := bayes.Table2Networks()[0]
	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()
	times := map[int64]float64{}
	for i := 0; i < b.N; i++ {
		for _, batch := range []int64{1, 4, 16} {
			res, err := bayes.RunParallel(bayes.ParallelConfig{
				Net: bn, Query: q, P: 2, Mode: core.NonStrict, Age: 16,
				Batch: batch, Precision: 0.04, MaxIters: 20000,
				Seed: int64(i + 1), Calib: calib,
			})
			if err != nil {
				b.Fatal(err)
			}
			times[batch] = res.Completion.Seconds()
		}
	}
	b.ReportMetric(times[1], "batch1-secs")
	b.ReportMetric(times[4], "batch4-secs")
	b.ReportMetric(times[16], "batch16-secs")
}

// BenchmarkAblationDefaults compares the paper's probability-derived
// default values against arbitrary ones (§3.2): worse defaults mean
// more failed gambles and more rollback work.
func BenchmarkAblationDefaults(b *testing.B) {
	bn := bayes.Table2Networks()[0]
	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()
	var informed, arbitrary bayes.ParallelResult
	for i := 0; i < b.N; i++ {
		cfg := bayes.ParallelConfig{
			Net: bn, Query: q, P: 2, Mode: core.Async,
			Precision: 0.04, MaxIters: 20000, Seed: int64(i + 1), Calib: calib,
		}
		r1, err := bayes.RunParallel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.RandomDefaults = true
		r2, err := bayes.RunParallel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		informed, arbitrary = r1, r2
	}
	b.ReportMetric(float64(informed.Conflicts), "informed-conflicts")
	b.ReportMetric(float64(arbitrary.Conflicts), "arbitrary-conflicts")
}

// BenchmarkDynamicAge exercises the paper's future-work extension:
// run-time adaptation of the tolerable age versus the best fixed
// setting.
func BenchmarkDynamicAge(b *testing.B) {
	var fixed, dynamic ga.IslandResult
	for i := 0; i < b.N; i++ {
		cfg := gaBenchConfig(int64(i + 1))
		r1, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.DynamicAge = true
		cfg.Age = 1 // start tight; adaptation opens the window as needed
		r2, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fixed, dynamic = r1, r2
	}
	b.ReportMetric(fixed.Completion.Seconds(), "fixed-age-secs")
	b.ReportMetric(dynamic.Completion.Seconds(), "dynamic-age-secs")
}

// BenchmarkSendWindowBackpressure compares PVM's unbounded send
// buffering against a flow-controlled transport — the transport-level
// alternative to the paper's program-level control.
func BenchmarkSendWindowBackpressure(b *testing.B) {
	var unbounded, windowed ga.IslandResult
	for i := 0; i < b.N; i++ {
		cfg := gaBenchConfig(int64(i + 1))
		cfg.Mode = core.Async
		cfg.LoaderBps = 6e6 // congested: backpressure only matters on a loaded bus
		r1, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		wcfg := cfg
		pc := defaultPVMWithWindow(4)
		wcfg.PVM = &pc
		r2, err := ga.RunIsland(wcfg)
		if err != nil {
			b.Fatal(err)
		}
		unbounded, windowed = r1, r2
	}
	// Per-frame mean bus wait: the unbounded transport lets the flood
	// pile onto the medium; the window paces senders instead.
	b.ReportMetric(unbounded.QueueDelay.Seconds()/float64(unbounded.Messages), "unbounded-wait-per-frame-secs")
	b.ReportMetric(windowed.QueueDelay.Seconds()/float64(windowed.Messages), "windowed-wait-per-frame-secs")
	b.ReportMetric(unbounded.Completion.Seconds(), "unbounded-completion-secs")
	b.ReportMetric(windowed.Completion.Seconds(), "windowed-completion-secs")
}

// BenchmarkExtensionSwitch reruns the Figure 2 comparison on the
// SP2-style crossbar switch — the paper's §4.1 expectation that the
// benefits carry (in reduced form) to faster interconnects. On the
// switch the network is no longer the bottleneck, so the Global_Read
// advantage shrinks to load-skew tolerance alone.
func BenchmarkExtensionSwitch(b *testing.B) {
	var syncS, grS float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		par := ga.DeJongParams()
		calib := ga.DefaultCalibration()
		serial := ga.RunSerial(functions.F1, par, par.N*8, 80, seed, calib)
		sw := netsim.DefaultSwitchConfig()
		base := ga.IslandConfig{
			Fn: functions.F1, Par: par, P: 8,
			FixedGens: 80, MinGens: 80, MaxGens: 320,
			Seed: seed, Calib: calib, Switch: &sw,
		}
		syncCfg := base
		syncCfg.Mode = core.Sync
		sr, err := ga.RunIsland(syncCfg)
		if err != nil {
			b.Fatal(err)
		}
		grCfg := base
		grCfg.Mode = core.NonStrict
		grCfg.Age = 10
		grCfg.Target = sr.Avg
		gr, err := ga.RunIsland(grCfg)
		if err != nil {
			b.Fatal(err)
		}
		syncS = serial.Time.Seconds() / sr.Completion.Seconds()
		grS = serial.Time.Seconds() / gr.Completion.Seconds()
	}
	b.ReportMetric(syncS, "switch-sync-speedup")
	b.ReportMetric(grS, "switch-gr10-speedup")
}

// BenchmarkExtensionLikelihoodWeighting compares the two serial
// approximate-inference algorithms under the paper's evidence setup.
func BenchmarkExtensionLikelihoodWeighting(b *testing.B) {
	bn := bayes.Table2Networks()[0]
	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()
	var lsIters, lwIters int64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		ls := bayes.InferSerial(bn, q, 0.02, seed, calib, 200000)
		lw := bayes.InferSerialLW(bn, q, 0.02, seed, calib, 200000)
		lsIters, lwIters = ls.Iters, lw.Iters
	}
	b.ReportMetric(float64(lsIters), "logic-sampling-iters")
	b.ReportMetric(float64(lwIters), "likelihood-weighting-iters")
}

// BenchmarkAblationMigration sweeps the island GA's migration topology
// and interval (§3.1 names interval, rate and topology as the knobs).
func BenchmarkAblationMigration(b *testing.B) {
	var bcast, ring, sparse ga.IslandResult
	for i := 0; i < b.N; i++ {
		cfg := gaBenchConfig(int64(i + 1))
		r1, err := ga.RunIsland(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ringCfg := cfg
		ringCfg.Topology = ga.Ring
		r2, err := ga.RunIsland(ringCfg)
		if err != nil {
			b.Fatal(err)
		}
		sparseCfg := cfg
		sparseCfg.Interval = 5
		r3, err := ga.RunIsland(sparseCfg)
		if err != nil {
			b.Fatal(err)
		}
		bcast, ring, sparse = r1, r2, r3
	}
	b.ReportMetric(float64(bcast.Messages), "broadcast-msgs")
	b.ReportMetric(float64(ring.Messages), "ring-msgs")
	b.ReportMetric(float64(sparse.Messages), "interval5-msgs")
	b.ReportMetric(bcast.Completion.Seconds(), "broadcast-secs")
	b.ReportMetric(ring.Completion.Seconds(), "ring-secs")
}

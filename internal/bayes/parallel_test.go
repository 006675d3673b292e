package bayes

import (
	"errors"
	"math"
	"testing"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/sim"
)

func TestInferSerialConvergesToExact(t *testing.T) {
	bn := Figure1()
	q := Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}} // p(D=t | A=t)
	want := Exact(bn, q)
	res := InferSerial(bn, q, 0.01, 3, DefaultCalibration(), 2_000_000)
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if math.Abs(res.Prob-want) > 0.02 {
		t.Fatalf("serial estimate %v, exact %v", res.Prob, want)
	}
	if res.Accepted == 0 || res.Accepted > res.Iters {
		t.Fatalf("accepted %d of %d", res.Accepted, res.Iters)
	}
	if res.Time <= 0 {
		t.Fatal("no virtual time accumulated")
	}
	if res.HalfWidth > 0.01 {
		t.Fatalf("half-width %v above target", res.HalfWidth)
	}
}

func TestInferSerialRespectsCap(t *testing.T) {
	bn := Figure1()
	q := Query{Node: 3, State: 1}
	res := InferSerial(bn, q, 0.0000001, 1, DefaultCalibration(), 500)
	if res.Converged || res.Iters != 500 {
		t.Fatalf("cap not honored: %+v", res)
	}
}

func TestInferSerialDeterministic(t *testing.T) {
	bn := Table2Networks()[0]
	q := DefaultQuery(bn)
	a := InferSerial(bn, q, 0.02, 5, DefaultCalibration(), 100000)
	b := InferSerial(bn, q, 0.02, 5, DefaultCalibration(), 100000)
	if a != b {
		t.Fatalf("serial inference nondeterministic:\n%+v\n%+v", a, b)
	}
}

func parCfg(mode core.Mode, p int) ParallelConfig {
	bn := Figure1()
	return ParallelConfig{
		Net:       bn,
		Query:     Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}},
		P:         p,
		Mode:      mode,
		Age:       5,
		Precision: 0.02,
		MaxIters:  200000,
		Seed:      17,
		Calib:     DefaultCalibration(),
	}
}

func TestParallelSingleProcessor(t *testing.T) {
	res, err := RunParallel(parCfg(core.Sync, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedPrecision {
		t.Fatalf("P=1 did not converge: %+v", res)
	}
	want := Exact(Figure1(), Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}})
	if math.Abs(res.Prob-want) > 0.04 {
		t.Fatalf("P=1 estimate %v, exact %v", res.Prob, want)
	}
	if res.Messages != 0 {
		t.Fatalf("P=1 generated %d frames", res.Messages)
	}
}

func TestParallelModesAgreeWithExact(t *testing.T) {
	want := Exact(Figure1(), Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}})
	for _, mode := range []core.Mode{core.Sync, core.Async, core.NonStrict} {
		res, err := RunParallel(parCfg(mode, 2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.ReachedPrecision {
			t.Fatalf("%v: did not reach precision: %+v", mode, res)
		}
		if math.Abs(res.Prob-want) > 0.05 {
			t.Fatalf("%v: estimate %v, exact %v", mode, res.Prob, want)
		}
		if res.Completion <= 0 || res.Messages == 0 {
			t.Fatalf("%v: degenerate run %+v", mode, res)
		}
	}
}

func TestParallelSyncNoGambles(t *testing.T) {
	res, err := RunParallel(parCfg(core.Sync, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gambles != 0 || res.Rollbacks != 0 {
		t.Fatalf("sync run gambled %d / rolled back %d times", res.Gambles, res.Rollbacks)
	}
}

func TestParallelAsyncGambles(t *testing.T) {
	res, err := RunParallel(parCfg(core.Async, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gambles == 0 {
		t.Fatalf("async run never gambled: %+v", res)
	}
	if res.Blocked != 0 {
		t.Fatalf("async run blocked %d times", res.Blocked)
	}
}

func TestParallelGlobalReadZeroAgeLockstep(t *testing.T) {
	// With general partitions both halves need each other's
	// current-iteration interface values, so even GR(0) gambles on the
	// in-flight iteration — but lockstep bounds every rollback's replay
	// to a single iteration (Replayed == Rollbacks), which is the
	// bounded-staleness guarantee in action.
	cfg := parCfg(core.NonStrict, 2)
	cfg.Age = 0
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked == 0 {
		t.Fatal("GR(0) never blocked; lockstep must throttle")
	}
	if res.Rollbacks > 0 && res.Replayed > res.Rollbacks {
		t.Fatalf("GR(0) replay %d exceeds rollbacks %d: straying not bounded to one iteration",
			res.Replayed, res.Rollbacks)
	}
}

func TestParallelGlobalReadBoundsRollbacks(t *testing.T) {
	// On a congested network the asynchronous sampler's lag grows —
	// gambles pile up and fail — while Global_Read caps the lag at age
	// iterations. Compare under a background loader (§5.2 regime).
	asyncCfg := parCfg(core.Async, 2)
	asyncCfg.LoaderBps = 4e6
	asyncCfg.MaxIters = 12000
	asyncCfg.Precision = 0.03
	async, err := RunParallel(asyncCfg)
	if err != nil {
		t.Fatal(err)
	}
	gr := asyncCfg
	gr.Mode = core.NonStrict
	gr.Age = 2
	bounded, err := RunParallel(gr)
	if err != nil {
		t.Fatal(err)
	}
	if async.Rollbacks == 0 {
		t.Fatalf("loaded async run never rolled back: %+v", async)
	}
	if !bounded.ReachedPrecision {
		t.Fatalf("loaded GR(2) failed to converge: %+v", bounded)
	}
	// The paper's mechanism: a rollback's cost is the replay from the
	// wrong gamble to the present, so it grows with how far the
	// processor strayed. Under load the unthrottled sampler's lag — and
	// therefore its replay span per rollback — exceeds the
	// Global_Read-bounded one's.
	asyncSpan := float64(async.Replayed) / float64(async.Rollbacks)
	grSpan := float64(bounded.Replayed) / float64(bounded.Rollbacks+1)
	if grSpan >= asyncSpan {
		t.Fatalf("GR(2) replay span %.2f not below async %.2f under load", grSpan, asyncSpan)
	}
}

func TestParallelDeterminism(t *testing.T) {
	a, err := RunParallel(parCfg(core.NonStrict, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(parCfg(core.NonStrict, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob != b.Prob || a.Completion != b.Completion || a.Messages != b.Messages ||
		a.Rollbacks != b.Rollbacks || a.Gambles != b.Gambles || a.Iters != b.Iters {
		t.Fatalf("same-seed parallel runs differ:\n%+v\n%+v", a, b)
	}
}

func TestParallelTable2Network(t *testing.T) {
	bn := Table2Networks()[3] // Hailfinder-like, smallest inference time
	cfg := ParallelConfig{
		Net:       bn,
		Query:     DefaultQuery(bn),
		P:         2,
		Mode:      core.NonStrict,
		Age:       10,
		Precision: 0.03, // loose for test speed
		MaxIters:  60000,
		Seed:      23,
		Calib:     DefaultCalibration(),
	}
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedPrecision {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.EdgeCut <= 0 {
		t.Fatal("partition produced no interface edges")
	}
	serial := InferSerial(bn, cfg.Query, 0.03, 23, DefaultCalibration(), 60000)
	if math.Abs(res.Prob-serial.Prob) > 0.06 {
		t.Fatalf("parallel %v vs serial %v", res.Prob, serial.Prob)
	}
}

func TestParallelMaxItersCap(t *testing.T) {
	cfg := parCfg(core.Async, 2)
	cfg.Precision = 1e-9
	cfg.MaxIters = 1500
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReachedPrecision {
		t.Fatal("impossible precision claimed reached")
	}
	if res.Iters > cfg.MaxIters+1 {
		t.Fatalf("coordinator ran %d iterations past the cap", res.Iters)
	}
}

// TestRunParallelConfigErrors pins the contract for impossible configs:
// each comes back as an error, never a panic.
func TestRunParallelConfigErrors(t *testing.T) {
	noNet := parCfg(core.Async, 2)
	noNet.Net = nil
	noProcs := parCfg(core.Async, 0)
	negProcs := parCfg(core.Sync, -1)
	noIters := parCfg(core.NonStrict, 2)
	noIters.MaxIters = 0
	negIters := parCfg(core.Async, 1)
	negIters.MaxIters = -5
	negAge := parCfg(core.NonStrict, 2)
	negAge.Age = -5
	prec := func(p float64) ParallelConfig {
		cfg := parCfg(core.Async, 2)
		cfg.Precision = p
		return cfg
	}
	negBatch := parCfg(core.NonStrict, 2)
	negBatch.Batch = -3
	// Fabric and cluster numbers no run can simulate: each is an error
	// from cluster.Build, not a panic inside the engine or a value
	// silently read as 0.
	bus := func(edit func(*netsim.Config)) ParallelConfig {
		cfg := parCfg(core.NonStrict, 2)
		nc := netsim.DefaultConfig()
		edit(&nc)
		cfg.NetCfg = &nc
		return cfg
	}
	zeroSwitch := parCfg(core.Async, 2)
	zeroSwitch.SwitchCfg = &netsim.SwitchConfig{}
	negLoad := parCfg(core.Sync, 2)
	negLoad.LoaderBps = -1
	negTimeout := parCfg(core.NonStrict, 2)
	negTimeout.ReadTimeout = -5 * sim.Millisecond
	nanCPT := parCfg(core.Async, 2)
	nanCPT.Net.Nodes[0].CPT[0] = []float64{math.NaN(), math.NaN()}
	for name, cfg := range map[string]ParallelConfig{
		"nil network":           noNet,
		"zero processors":       noProcs,
		"negative processors":   negProcs,
		"zero MaxIters":         noIters,
		"negative MaxIters":     negIters,
		"GR, negative Age":      negAge,
		"NaN Precision":         prec(math.NaN()),
		"zero Precision":        prec(0),
		"negative Precision":    prec(-1),
		"negative Batch":        negBatch,
		"NaN bus bandwidth":     bus(func(c *netsim.Config) { c.BandwidthBps = math.NaN() }),
		"zero bus bandwidth":    bus(func(c *netsim.Config) { c.BandwidthBps = 0 }),
		"negative loss":         bus(func(c *netsim.Config) { c.LossProb = -0.1 }),
		"NaN loss":              bus(func(c *netsim.Config) { c.LossProb = math.NaN() }),
		"zero switch bandwidth": zeroSwitch,
		"negative loader rate":  negLoad,
		"negative read timeout": negTimeout,
		"NaN CPT row":           nanCPT,
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if _, err := RunParallel(cfg); err == nil {
				t.Errorf("%s: no error", name)
			} else if errors.Is(err, sim.ErrDeadlock) {
				t.Errorf("%s: ran until %v instead of rejecting the config", name, err)
			}
		}()
	}
}

func TestParallelRandomDefaultsIncreaseGambleFailures(t *testing.T) {
	good := parCfg(core.Async, 2)
	bad := good
	bad.RandomDefaults = true
	g, err := RunParallel(good)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(bad)
	if err != nil {
		t.Fatal(err)
	}
	if g.Gambles == 0 || b.Gambles == 0 {
		t.Skip("no gambles occurred; network too fast for this seed")
	}
	gRate := float64(g.Conflicts) / float64(g.Gambles)
	bRate := float64(b.Conflicts) / float64(b.Gambles)
	if bRate < gRate {
		t.Fatalf("random defaults conflicted less than informed ones: %v vs %v", bRate, gRate)
	}
}

func TestParallelThreeAndFourPartitions(t *testing.T) {
	// The sampler must stay correct with k-way partitions: multi-hop
	// sync phases, corrections cascading across middle partitions.
	bn := Table2Networks()[0]
	q := DefaultQuery(bn)
	want := InferSerial(bn, q, 0.03, 31, DefaultCalibration(), 100000)
	for _, p := range []int{3, 4} {
		for _, mode := range []core.Mode{core.Sync, core.Async, core.NonStrict} {
			cfg := ParallelConfig{
				Net: bn, Query: q, P: p, Mode: mode, Age: 8,
				Precision: 0.03, MaxIters: 100000, Seed: 31,
				Calib: DefaultCalibration(),
			}
			res, err := RunParallel(cfg)
			if err != nil {
				t.Fatalf("P=%d %v: %v", p, mode, err)
			}
			// The uncontrolled asynchronous sampler may legitimately
			// burn its budget on rollback replays at k-way partitions —
			// that is the paper's pathology — but it must terminate
			// cleanly; the controlled modes must converge.
			if mode != core.Async && !res.ReachedPrecision {
				t.Fatalf("P=%d %v did not converge: %+v", p, mode, res)
			}
			if res.ReachedPrecision && math.Abs(res.Prob-want.Prob) > 0.08 {
				t.Fatalf("P=%d %v estimate %v, serial %v", p, mode, res.Prob, want.Prob)
			}
		}
	}
}

func TestParallelSwitchFasterThanBus(t *testing.T) {
	bn := Table2Networks()[0]
	q := DefaultQuery(bn)
	cfg := ParallelConfig{
		Net: bn, Query: q, P: 2, Mode: core.Sync,
		Precision: 0.04, MaxIters: 40000, Seed: 3,
		Calib: DefaultCalibration(),
	}
	bus, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := netsim.DefaultSwitchConfig()
	cfg.SwitchCfg = &sw
	fast, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fast fabric must help; the improvement is bounded because the
	// sync sampler's per-phase message rounds are dominated by software
	// send/receive overheads, which a faster wire does not remove — the
	// same reason the paper expects reduced-but-present benefits on the
	// SP2 switch.
	if fast.Completion >= bus.Completion {
		t.Fatalf("switch sync (%v) not faster than bus sync (%v)",
			fast.Completion, bus.Completion)
	}
}

func TestParallelBatchingReducesMessages(t *testing.T) {
	bn := Table2Networks()[2]
	q := DefaultQuery(bn)
	run := func(batch int64) ParallelResult {
		res, err := RunParallel(ParallelConfig{
			Net: bn, Query: q, P: 2, Mode: core.NonStrict, Age: 16,
			Batch: batch, Precision: 0.04, MaxIters: 20000, Seed: 9,
			Calib: DefaultCalibration(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b1, b16 := run(1), run(16)
	if b16.Messages*3 > b1.Messages {
		t.Fatalf("batch 16 did not cut messages at least 3x: %d vs %d", b16.Messages, b1.Messages)
	}
}

func TestParallelEvidenceAcrossPartitions(t *testing.T) {
	// Multiple evidence nodes spread over both partitions: the
	// evidence-bit stream and the local checks must compose.
	bn := Table2Networks()[0]
	defs := bn.Defaults(2000, 7)
	q := Query{
		Node:  bn.N() - 1,
		State: 0,
		Evidence: map[int]int{
			3:           defs[3],
			bn.N() / 2:  defs[bn.N()/2],
			bn.N() - 10: defs[bn.N()-10],
		},
	}
	serial := InferSerial(bn, q, 0.03, 19, DefaultCalibration(), 150000)
	par, err := RunParallel(ParallelConfig{
		Net: bn, Query: q, P: 2, Mode: core.NonStrict, Age: 10,
		Precision: 0.03, MaxIters: 150000, Seed: 19, Calib: DefaultCalibration(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Converged || !par.ReachedPrecision {
		t.Fatalf("convergence: serial=%v parallel=%v", serial.Converged, par.ReachedPrecision)
	}
	if math.Abs(serial.Prob-par.Prob) > 0.08 {
		t.Fatalf("serial %v vs parallel %v", serial.Prob, par.Prob)
	}
}

func TestParallelLongRunPrunesLedger(t *testing.T) {
	// A long asynchronous run must prune its rollback ledger (the test
	// would OOM-ish/grow unboundedly otherwise); correctness must hold.
	cfg := parCfg(core.Async, 2)
	cfg.Precision = 1e-9 // force a long run
	cfg.MaxIters = 6000
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters < 4000 {
		t.Fatalf("expected a long run, got %d iterations", res.Iters)
	}
	want := Exact(Figure1(), Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}})
	if math.Abs(res.Prob-want) > 0.1 {
		t.Fatalf("pruned run estimate %v far from exact %v", res.Prob, want)
	}
}

// TestSyncRefusesDuplicatingPlan checks a library call of a Sync run
// on the plain transport under a plan that duplicates every frame:
// with network A at P = 2, seed 5 and precision 0.03, such a run once
// read stale verdicts and gambled 14,985 times. It now returns
// cluster.ErrSyncRepeats, as the commands refuse the run; on the
// reliable transport the same run gambles never, and a Global_Read run
// on the plain transport runs.
func TestSyncRefusesDuplicatingPlan(t *testing.T) {
	bn := Table2Networks()[0]
	cfg := ParallelConfig{
		Net: bn, Query: DefaultQuery(bn), P: 2, Mode: core.Sync,
		Precision: 0.03, MaxIters: 4000, Seed: 5, Calib: DefaultCalibration(),
	}
	cfg.Faults = &faults.Plan{Name: "every frame twice",
		Duplicates: []faults.DuplicateWindow{{From: 0, To: 100, Prob: 1}}}
	if _, err := RunParallel(cfg); !errors.Is(err, cluster.ErrSyncRepeats) {
		t.Fatalf("sync run on the plain transport: error %v, want %v", err, cluster.ErrSyncRepeats)
	}
	cfg.Reliable = true
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatalf("sync run on the reliable transport: %v", err)
	}
	if res.Gambles != 0 {
		t.Fatalf("sync run on the reliable transport gambled %d times, want 0", res.Gambles)
	}
	cfg.Mode, cfg.Age, cfg.Reliable = core.NonStrict, 10, false
	if _, err := RunParallel(cfg); err != nil {
		t.Fatalf("global_read run on the plain transport: %v", err)
	}
}

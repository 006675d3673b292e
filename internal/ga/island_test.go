package ga

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// quickCfg returns a small, fast island configuration for tests.
func quickCfg(mode core.Mode, p int) IslandConfig {
	cfg := IslandConfig{
		Fn:        functions.F1,
		Par:       DeJongParams(),
		P:         p,
		Mode:      mode,
		Age:       5,
		FixedGens: 40,
		Target:    0.05,
		MaxGens:   200,
		Seed:      11,
		Calib:     DefaultCalibration(),
	}
	return cfg
}

func TestRunSerialConverges(t *testing.T) {
	res := RunSerial(functions.F1, DeJongParams(), 100, 150, 1, DefaultCalibration())
	if res.Gens != 150 {
		t.Fatalf("gens %d", res.Gens)
	}
	if res.Best > 0.5 {
		t.Fatalf("serial F1 best after 150 gens = %v", res.Best)
	}
	if res.Time <= 0 {
		t.Fatal("no virtual time accumulated")
	}
	if res.Evals <= 0 || res.Evals > 150*100 {
		t.Fatalf("evals = %d", res.Evals)
	}
	// Caching must have saved something.
	if res.Evals >= 150*100 {
		t.Fatal("fitness caching saved nothing")
	}
}

func TestRunSerialDeterministic(t *testing.T) {
	a := RunSerial(functions.F6, DeJongParams(), 50, 50, 7, DefaultCalibration())
	b := RunSerial(functions.F6, DeJongParams(), 50, 50, 7, DefaultCalibration())
	if a != b {
		t.Fatalf("serial runs with same seed differ: %+v vs %+v", a, b)
	}
}

func TestIslandSyncRuns(t *testing.T) {
	res, err := RunIsland(quickCfg(core.Sync, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.Gens {
		if g != 40 {
			t.Fatalf("island %d ran %d generations, want 40", i, g)
		}
	}
	if res.Completion <= 0 {
		t.Fatal("no completion time")
	}
	if res.Best > 2 {
		t.Fatalf("sync best %v unexpectedly poor", res.Best)
	}
	if !res.ReachedTarget {
		t.Fatal("sync runs always count as reaching target")
	}
	if res.Messages == 0 {
		t.Fatal("no network traffic in a parallel run")
	}
}

func TestIslandAsyncTerminates(t *testing.T) {
	res, err := RunIsland(quickCfg(core.Async, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion <= 0 {
		t.Fatal("no completion time")
	}
	if res.Blocked != 0 {
		t.Fatalf("async run blocked %d times; async reads must never block", res.Blocked)
	}
	// Either it reached the (easy) target or hit the cap.
	if res.ReachedTarget && res.Best > 0.05 {
		t.Fatalf("claims target reached but best = %v", res.Best)
	}
}

func TestIslandGlobalReadTerminates(t *testing.T) {
	res, err := RunIsland(quickCfg(core.NonStrict, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion <= 0 {
		t.Fatal("no completion time")
	}
	if !res.ReachedTarget {
		t.Fatalf("GR(5) failed to reach easy target; best=%v gens=%v", res.Best, res.Gens)
	}
}

func TestIslandDeterminism(t *testing.T) {
	a, err := RunIsland(quickCfg(core.NonStrict, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIsland(quickCfg(core.NonStrict, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Completion != b.Completion || a.Best != b.Best || a.Messages != b.Messages {
		t.Fatalf("same-seed island runs differ:\n%+v\n%+v", a, b)
	}
}

func TestIslandSingleProcessor(t *testing.T) {
	cfg := quickCfg(core.Sync, 1)
	res, err := RunIsland(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gens[0] != 40 {
		t.Fatalf("gens %v", res.Gens)
	}
	if res.Messages != 0 {
		t.Fatalf("single island generated %d messages", res.Messages)
	}
}

func TestIslandLoaderAddsTraffic(t *testing.T) {
	// Fixed-generation sync runs: identical work, so the loaded run
	// must take strictly longer (target-based stopping would make the
	// comparison stochastic).
	base := quickCfg(core.Sync, 2)
	base.FixedGens = 150
	loaded := base
	loaded.LoaderBps = 2e6
	a, err := RunIsland(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIsland(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if b.Messages <= a.Messages {
		t.Fatalf("loader added no frames: %d vs %d", b.Messages, a.Messages)
	}
	if b.Completion < a.Completion {
		t.Fatalf("heavy background load sped the run up: %v vs %v", b.Completion, a.Completion)
	}
}

// TestLoadedIslandReleasesCell checks that a loaded run leaves nothing
// live behind. The bus loader sleeps in an endless loop, so after
// RunIsland stops the engine its goroutine, and through it the cell's
// engine, network and demes, stays reachable unless the engine is
// closed.
func TestLoadedIslandReleasesCell(t *testing.T) {
	cfg := quickCfg(core.NonStrict, 4)
	cfg.LoaderBps = 2e6
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	if _, err := RunIsland(cfg); err != nil { // warms up lazily built state
		t.Fatal(err)
	}
	goroutines, heap := runtime.NumGoroutine(), heapInUse()
	const runs = 10
	for i := 0; i < runs; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := RunIsland(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Close returns once every process has handed control back on its
	// way out; let those goroutines finish exiting, which can take a
	// while on a loaded host.
	for end := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(end); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d loaded runs left %d goroutines running", runs, n-goroutines)
	}
	// One leaked cell keeps about 80 KB reachable; allow GC noise.
	const slack = 256 << 10
	if h := heapInUse(); h > heap+slack {
		t.Errorf("%d loaded runs grew heap in use by %d KB", runs, (h-heap)>>10)
	}
}

func TestIslandGenerationsScaleWithMode(t *testing.T) {
	// Async islands run at least as many generations as GR ones to hit
	// the same target (stale migrants converge slower), and GR(large)
	// blocks less than GR(0).
	gr0 := quickCfg(core.NonStrict, 4)
	gr0.Age = 0
	gr20 := quickCfg(core.NonStrict, 4)
	gr20.Age = 20
	a, err := RunIsland(gr0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIsland(gr20)
	if err != nil {
		t.Fatal(err)
	}
	if b.BlockedTime > a.BlockedTime {
		t.Fatalf("GR(20) blocked longer than GR(0): %v vs %v", b.BlockedTime, a.BlockedTime)
	}
}

func TestMigrantBlockBytes(t *testing.T) {
	b := MigrantBlockBytes(functions.F1, 25)
	want := 16 + 25*(functions.F1.Bytes()+8)
	if b != want {
		t.Fatalf("MigrantBlockBytes = %d, want %d", b, want)
	}
}

// TestIslandBytesPerIsland bounds what one more island costs a run: the
// bytes RunIsland allocates at P = 64 minus those at P = 32, per extra
// island, on the scale sweep's overlay and fabric (gossip-random on the
// default rack/spine), Sync, 2 generations. The deme scratch and the
// migrant sorter are one per run, and migrant blocks are read where
// they arrive; a private copy of them per island (about 16 KB) would
// break the 20 KB bound.
func TestIslandBytesPerIsland(t *testing.T) {
	allocated := func(p int) uint64 {
		h := netsim.DefaultHierConfig()
		cfg := IslandConfig{
			Fn: functions.F1, Par: DeJongParams(), P: p,
			Mode: core.Sync, FixedGens: 2, Topology: GossipRandom,
			Seed: 3, Calib: DefaultCalibration(), Hier: &h,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunIsland(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(64) // a process's first run also pays one-time runtime costs (about 30 KB)
	small, large := allocated(32), allocated(64)
	per := (int64(large) - int64(small)) / 32
	t.Logf("P=32 %d B, P=64 %d B: %d B per island", small, large, per)
	if per > 20_000 {
		t.Fatalf("each island adds %d bytes to a run, want at most 20000", per)
	}
}

func TestCalibrationCosts(t *testing.T) {
	c := DefaultCalibration()
	if c.EvalCost(functions.F4) <= c.EvalCost(functions.F2) {
		t.Fatal("more variables must cost more")
	}
	if c.GenCost(functions.F1, 50, 50) <= c.GenCost(functions.F1, 10, 50) {
		t.Fatal("more evaluations must cost more")
	}
}

func TestJitterDistribution(t *testing.T) {
	c := DefaultCalibration()
	jit := c.NewJitterer(testDeme(t, functions.F1, 1).rng)
	minF, maxF := 100.0, 0.0
	patchGens := 0
	for i := 0; i < 3000; i++ {
		// Outside a patch f reaches SlowFactor only past 10 standard
		// deviations of jitter.
		f := jit.Next()
		if f >= c.SlowFactor {
			patchGens++
		}
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if minF < 1 {
		t.Fatalf("jitter below 1: %v", minF)
	}
	if maxF < 1.5 {
		t.Fatalf("slow patches never appeared in 3000 draws (max %v)", maxF)
	}
	// Patches are correlated stretches: with SlowProb 0.015 and mean
	// length 10 we expect roughly 10-20%% of generations inside patches.
	if patchGens < 3000/50 || patchGens > 3000/2 {
		t.Fatalf("patch occupancy %d/3000 implausible", patchGens)
	}
}

func TestRingTopologyLessTraffic(t *testing.T) {
	bcast := quickCfg(core.Sync, 4)
	ring := bcast
	ring.Topology = Ring
	a, err := RunIsland(bcast)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIsland(ring)
	if err != nil {
		t.Fatal(err)
	}
	// A ring round sends P migrant frames; broadcast also sends P (one
	// multicast each) but each ring frame has a single destination, so
	// byte deliveries differ. Compare delivered bytes via NetBytes and
	// convergence quality: broadcast mixes faster.
	if b.Messages > a.Messages {
		t.Fatalf("ring generated more frames than broadcast: %d vs %d", b.Messages, a.Messages)
	}
	if a.Best > b.Best*10+1e-9 && a.Best > 1e-6 {
		t.Fatalf("broadcast converged far worse than ring: %v vs %v", a.Best, b.Best)
	}
}

func TestMigrationInterval(t *testing.T) {
	every := quickCfg(core.Sync, 4)
	sparse := every
	sparse.Interval = 5
	a, err := RunIsland(every)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIsland(sparse)
	if err != nil {
		t.Fatal(err)
	}
	// Migrating every 5th generation cuts migrant traffic ~5x; the
	// per-generation barrier frames remain, so total traffic drops by
	// the migrant share.
	if b.Messages >= a.Messages*3/4 {
		t.Fatalf("interval 5 left too much traffic: %d vs %d frames", b.Messages, a.Messages)
	}
	// Both still converge on F1.
	if b.Best > 1 {
		t.Fatalf("sparse migration failed to converge: best %v", b.Best)
	}
}

func TestTopologyString(t *testing.T) {
	if Broadcast.String() != "broadcast" || Ring.String() != "ring" {
		t.Fatal("topology names")
	}
	if Topology(9).String() != "Topology(?)" {
		t.Fatal("unknown topology name")
	}
}

func TestDynamicAgeAdapts(t *testing.T) {
	cfg := quickCfg(core.NonStrict, 4)
	cfg.DynamicAge = true
	cfg.Age = 0 // start lockstep; adaptation must open the window
	res, err := RunIsland(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("dynamic-age run failed: %+v", res)
	}
	// A pure age-0 run blocks on every read; adaptation must have
	// reduced blocking below that burden.
	fixed := quickCfg(core.NonStrict, 4)
	fixed.Age = 0
	ref, err := RunIsland(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked >= ref.Blocked {
		t.Fatalf("dynamic age did not reduce blocking: %d vs %d", res.Blocked, ref.Blocked)
	}
}

func TestAsyncToleratesMessageLoss(t *testing.T) {
	// The paper's premise: data-race tolerant applications "behave
	// correctly in the presence of losses and delays in the propagation
	// of shared memory updates". Drop 20% of all frames; the fully
	// asynchronous island GA must still converge to the optimum.
	cfg := quickCfg(core.Async, 4)
	cfg.FixedGens = 80
	cfg.MinGens = 80
	cfg.MaxGens = 320
	lossy := netsim.DefaultConfig()
	lossy.LossProb = 0.2
	cfg.Net = &lossy
	res, err := RunIsland(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OptimumFound {
		t.Fatalf("async GA failed under 20%% loss: best %v", res.Best)
	}
	if res.Blocked != 0 {
		t.Fatal("async must not block, with or without loss")
	}
}

// TestHierRecordsFabricSeries checks that the rack/spine fabric records
// the bus's fabric series under the bus's names when a run sets Series:
// net.busy_us sums to the fabric's busy time and net.drops to its lost
// deliveries. Recording is strictly observational: with series on, the
// result equals the result with series off, apart from
// Telemetry.Series.
func TestHierRecordsFabricSeries(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode core.Mode
		loss float64
	}{
		{"global_read", core.NonStrict, 0},
		// Async runs finish without every message, so the bus can lose
		// some and net.drops has samples.
		{"async_lossy", core.Async, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(set *tseries.Set) IslandResult {
				t.Helper()
				cfg := quickCfg(tc.mode, 8)
				h := netsim.DefaultHierConfig()
				h.RackSize = 4
				h.Bus.LossProb = tc.loss
				cfg.Hier = &h
				cfg.Series = set
				res, err := RunIsland(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			off := run(nil)
			on := run(tseries.NewSet(tseries.DefaultWindow))

			sums := map[string]float64{}
			for _, s := range on.Telemetry.Series {
				sums[s.Name] = 0
				for _, v := range s.Values {
					sums[s.Name] += v
				}
			}
			for _, name := range []string{"net.busy_us", "net.drops", "net.queue_depth"} {
				if _, ok := sums[name]; !ok {
					t.Errorf("no %s series among %d exported", name, len(on.Telemetry.Series))
				}
			}
			net := on.Telemetry.Net
			if busy := net.BusySecs * 1e6; math.Abs(sums["net.busy_us"]-busy) > 1e-6*busy || busy == 0 {
				t.Errorf("net.busy_us sums to %v µs, fabric busy time is %v µs", sums["net.busy_us"], busy)
			}
			if sums["net.drops"] != float64(net.Dropped) || (tc.loss > 0) != (net.Dropped > 0) {
				t.Errorf("net.drops sums to %v, fabric dropped %d", sums["net.drops"], net.Dropped)
			}

			tel := *on.Telemetry
			tel.Series = nil
			on.Telemetry = &tel
			if !reflect.DeepEqual(on, off) {
				t.Errorf("recording series changed the run:\non:  %+v\noff: %+v", on, off)
			}
		})
	}
}

// TestNetDropsSeriesCountsFabricLossOnly pins what net.drops counts in
// a run with both a fault plan and bus loss: the fabric's own lost
// deliveries, one per "drop" instant on the net trace track. The plan's
// drops, one per *_drop instant on the faults track, are in
// Telemetry.Net.Dropped but not in the series, because the injector
// records no series and the run attaches them to the inner fabric.
func TestNetDropsSeriesCountsFabricLossOnly(t *testing.T) {
	cfg := quickCfg(core.NonStrict, 4)
	cfg.Seed = 41
	bus := netsim.DefaultConfig()
	bus.LossProb = 0.1
	cfg.Net = &bus
	cfg.Faults = &faults.Plan{Loss: []faults.LossBurst{
		{From: 0, To: 2, Prob: 0.3, Src: faults.AnyNode, Dst: faults.AnyNode},
	}}
	cfg.Reliable = true
	cfg.Series = tseries.NewSet(tseries.DefaultWindow)
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	res, err := RunIsland(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := 0.0
	for _, s := range res.Telemetry.Series {
		if s.Name == "net.drops" {
			for _, v := range s.Values {
				series += v
			}
		}
	}
	fabric := rec.CountBy(func(e *trace.Event) bool { return e.Pid == trace.PidNet && e.Name == "drop" })
	plan := rec.CountBy(func(e *trace.Event) bool {
		return e.Pid == trace.PidFaults && strings.HasSuffix(e.Name, "_drop")
	})
	if fabric == 0 || plan == 0 {
		t.Fatalf("fabric dropped %d and the plan %d; want both to drop", fabric, plan)
	}
	t.Logf("fabric drops %d, plan drops %d, Telemetry.Net.Dropped %d", fabric, plan, res.Telemetry.Net.Dropped)
	if series != float64(fabric) {
		t.Errorf("net.drops sums to %v, the fabric dropped %d", series, fabric)
	}
	if rest := res.Telemetry.Net.Dropped - int64(series); rest != int64(plan) {
		t.Errorf("Telemetry.Net.Dropped %d minus net.drops %v is %d, the plan dropped %d",
			res.Telemetry.Net.Dropped, series, rest, plan)
	}
}

// TestRunIslandConfigErrors pins the contract for impossible configs:
// each comes back as an error, never a panic (a deme of one used to
// panic inside a simulated process).
func TestRunIslandConfigErrors(t *testing.T) {
	noFn := quickCfg(core.Async, 2)
	noFn.Fn = nil
	tinyDeme := quickCfg(core.NonStrict, 2)
	tinyDeme.Par.N = 1
	noFixed := quickCfg(core.Sync, 2)
	noFixed.FixedGens = 0
	noMax := quickCfg(core.Async, 2)
	noMax.MaxGens = 0
	negMax := quickCfg(core.NonStrict, 2)
	negMax.MaxGens = -3
	negAge := quickCfg(core.NonStrict, 2)
	negAge.Age = -5
	negInterval := quickCfg(core.Async, 2)
	negInterval.Interval = -3
	// Fabric and cluster numbers no run can simulate: each is an error
	// from cluster.Build, not a panic inside the engine or a value
	// silently read as 0.
	bus := func(edit func(*netsim.Config)) IslandConfig {
		cfg := quickCfg(core.NonStrict, 2)
		nc := netsim.DefaultConfig()
		edit(&nc)
		cfg.Net = &nc
		return cfg
	}
	zeroSwitch := quickCfg(core.Async, 2)
	zeroSwitch.Switch = &netsim.SwitchConfig{}
	noRacks := quickCfg(core.Async, 2)
	noRacks.Hier = &netsim.HierConfig{Bus: netsim.DefaultConfig(), UplinkBandwidthBps: 1e8}
	negLoad := quickCfg(core.Sync, 2)
	negLoad.LoaderBps = -1
	negTimeout := quickCfg(core.NonStrict, 2)
	negTimeout.ReadTimeout = -5 * sim.Millisecond
	for name, cfg := range map[string]IslandConfig{
		"nil function":          noFn,
		"zero processors":       quickCfg(core.Async, 0),
		"negative processors":   quickCfg(core.Sync, -1),
		"deme of one":           tinyDeme,
		"sync, zero FixedGens":  noFixed,
		"async, zero MaxGens":   noMax,
		"GR, negative MaxGens":  negMax,
		"GR, negative Age":      negAge,
		"negative Interval":     negInterval,
		"NaN bus bandwidth":     bus(func(c *netsim.Config) { c.BandwidthBps = math.NaN() }),
		"zero bus bandwidth":    bus(func(c *netsim.Config) { c.BandwidthBps = 0 }),
		"negative loss":         bus(func(c *netsim.Config) { c.LossProb = -0.1 }),
		"NaN loss":              bus(func(c *netsim.Config) { c.LossProb = math.NaN() }),
		"zero switch bandwidth": zeroSwitch,
		"zero rack size":        noRacks,
		"negative loader rate":  negLoad,
		"negative read timeout": negTimeout,
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if _, err := RunIsland(cfg); err == nil {
				t.Errorf("%s: no error", name)
			} else if errors.Is(err, sim.ErrDeadlock) {
				t.Errorf("%s: ran until %v instead of rejecting the config", name, err)
			}
		}()
	}
}

// TestSyncRefusesDuplicatingPlan checks a library call of a Sync run
// on the plain transport under a plan that duplicates frames: it
// returns cluster.ErrSyncRepeats, as the commands refuse the run, while
// the same run on the reliable transport, and a Global_Read run on the
// plain one, run.
func TestSyncRefusesDuplicatingPlan(t *testing.T) {
	dup := &faults.Plan{Name: "every frame twice",
		Duplicates: []faults.DuplicateWindow{{From: 0, To: 100, Prob: 1}}}
	cfg := quickCfg(core.Sync, 4)
	cfg.Faults = dup
	if _, err := RunIsland(cfg); !errors.Is(err, cluster.ErrSyncRepeats) {
		t.Fatalf("sync run on the plain transport: error %v, want %v", err, cluster.ErrSyncRepeats)
	}
	cfg.Reliable = true
	if _, err := RunIsland(cfg); err != nil {
		t.Fatalf("sync run on the reliable transport: %v", err)
	}
	cfg = quickCfg(core.NonStrict, 4)
	cfg.Faults = dup
	if _, err := RunIsland(cfg); err != nil {
		t.Fatalf("global_read run on the plain transport: %v", err)
	}
}

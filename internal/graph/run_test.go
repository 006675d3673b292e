package graph

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// TestRaceClassification pins the simrace contract per discipline:
// sync runs have zero racy reads; age-bounded runs have zero unbounded
// reads and observed staleness at most the bound; fully-async runs are
// where the unbounded races live.
func TestRaceClassification(t *testing.T) {
	g, err := ParseTopoSpec("random:n=40,m=80,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range oracleVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			res, err := Run(Config{
				G: g, Algo: PageRank, P: 4,
				Mode: v.mode, Age: v.age,
				MaxSupersteps: 4000,
				Seed:          5,
				Calib:         DefaultCalibration(),
				Options:       cluster.Options{RaceCheck: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			r := res.Telemetry.Races
			if r == nil || r.Reads == 0 {
				t.Fatal("race checker recorded nothing")
			}
			switch v.mode {
			case core.Sync:
				if n := r.Races(); n != 0 {
					t.Errorf("sync run classified %d racy reads, want 0", n)
				}
			case core.NonStrict:
				if r.Unbounded != 0 {
					t.Errorf("age-bounded run classified %d unbounded reads, want 0", r.Unbounded)
				}
				if r.MaxLag > v.age {
					t.Errorf("observed staleness %d exceeds the age bound %d", r.MaxLag, v.age)
				}
			case core.Async:
				if r.Unbounded == 0 {
					t.Error("async run classified no unbounded reads; expected some")
				}
			}
		})
	}
}

// TestSinglePartition is the P=1 edge case: no cross-partition reads,
// no barrier traffic, and the run must match the sequential oracle
// superstep-for-superstep.
func TestSinglePartition(t *testing.T) {
	g, err := Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	calib := DefaultCalibration()
	seq := RunSequential(g, SSSP, DefaultEps, 100, calib)
	for _, mode := range []core.Mode{core.Sync, core.Async, core.NonStrict} {
		res, err := Run(Config{
			G: g, Algo: SSSP, P: 1,
			Mode:          mode,
			MaxSupersteps: 100,
			Seed:          1,
			Calib:         calib,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", mode)
		}
		if d := MaxDiff(res.Values, seq.Values); d != 0 {
			t.Errorf("%v: diff vs oracle %g, want exact match with no peers", mode, d)
		}
	}
}

// TestTelemetryAndSeries checks the observability wiring: trace spans
// on the app track, the graph tseries channels, warp/staleness summary
// fields, and the per-task core counters.
func TestTelemetryAndSeries(t *testing.T) {
	g, err := ParseTopoSpec("clustered:n=40,k=4,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewRecorder()
	set := tseries.NewSet(10 * sim.Millisecond)
	res, err := Run(Config{
		G: g, Algo: PageRank, P: 4,
		Mode: core.NonStrict, Age: 10,
		MaxSupersteps: 4000,
		Seed:          3,
		Calib:         DefaultCalibration(),
		Options: cluster.Options{
			Tracer: buf,
			Series: set,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}

	spans := 0
	for _, ev := range buf.Events() {
		if ev.Cat == "graph" && ev.Name == "superstep" && ev.Ph == trace.PhaseSpan {
			if ev.Pid != trace.PidApp {
				t.Fatalf("superstep span on pid %d, want app track %d", ev.Pid, trace.PidApp)
			}
			spans++
		}
	}
	var total int64
	for _, n := range res.Supersteps {
		total += n
	}
	if int64(spans) != total {
		t.Errorf("%d superstep spans for %d supersteps", spans, total)
	}

	sums := map[string]bool{}
	for _, s := range res.Telemetry.Series {
		var n int64
		for _, c := range s.Counts {
			n += c
		}
		sums[s.Name] = n > 0
	}
	for _, name := range []string{"graph.iters", "graph.residual", "graph.frontier_size", "pvm.warp"} {
		if !sums[name] {
			t.Errorf("series %q missing or empty", name)
		}
	}

	tel := res.Telemetry
	if tel.Variant != "global_read" || tel.Age != 10 {
		t.Errorf("telemetry variant/age = %q/%d", tel.Variant, tel.Age)
	}
	if len(tel.Tasks) != 4 {
		t.Fatalf("%d task telemetry entries, want 4", len(tel.Tasks))
	}
	var reads int64
	for _, ts := range tel.Tasks {
		reads += ts.GlobalReads
	}
	if reads == 0 {
		t.Error("no Global_Reads recorded in task telemetry")
	}
	if tel.Staleness.N == 0 {
		t.Error("staleness histogram empty")
	}
	if tel.Net.Frames == 0 || res.Messages == 0 || res.NetBytes == 0 {
		t.Error("network counters empty")
	}
	if res.Completion <= 0 {
		t.Error("completion time not recorded")
	}
}

// TestRunConfigErrors pins the constructor contract for impossible
// configs: each comes back as an error, never a panic.
func TestRunConfigErrors(t *testing.T) {
	g, _ := Ring(4)
	// Fabric and cluster numbers no run can simulate: each is an error
	// from cluster.Build, not a panic inside the engine or a value
	// silently read as 0.
	bus := func(edit func(*netsim.Config)) Config {
		nc := netsim.DefaultConfig()
		edit(&nc)
		return Config{G: g, P: 2, MaxSupersteps: 1, Net: &nc}
	}
	for name, cfg := range map[string]Config{
		"nil graph":             {P: 1, MaxSupersteps: 1},
		"zero parts":            {G: g, P: 0, MaxSupersteps: 1},
		"too many":              {G: g, P: 5, MaxSupersteps: 1},
		"no superstep cap":      {G: g, P: 2},
		"GR, negative age":      {G: g, P: 2, MaxSupersteps: 1, Mode: core.NonStrict, Age: -5},
		"NaN bus bandwidth":     bus(func(c *netsim.Config) { c.BandwidthBps = math.NaN() }),
		"zero bus bandwidth":    bus(func(c *netsim.Config) { c.BandwidthBps = 0 }),
		"negative loss":         bus(func(c *netsim.Config) { c.LossProb = -0.1 }),
		"NaN loss":              bus(func(c *netsim.Config) { c.LossProb = math.NaN() }),
		"zero switch bandwidth": {G: g, P: 2, MaxSupersteps: 1, Switch: &netsim.SwitchConfig{}},
		"negative read timeout": {G: g, P: 2, MaxSupersteps: 1, Options: cluster.Options{ReadTimeout: -1}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s: no error", name)
			} else if errors.Is(err, sim.ErrDeadlock) {
				t.Errorf("%s: ran until %v instead of rejecting the config", name, err)
			}
		}()
	}
}

// TestMaxSuperstepCap: a cap too small to converge must come back
// Converged=false with the cap respected, not hang.
func TestMaxSuperstepCap(t *testing.T) {
	g, err := ParseTopoSpec("ring:24")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		G: g, Algo: SSSP, P: 4,
		Mode:          core.Async,
		MaxSupersteps: 5,
		Seed:          1,
		Calib:         DefaultCalibration(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged under a 5-superstep cap on a diameter-23 ring")
	}
	for p, n := range res.Supersteps {
		if n > 5 {
			t.Errorf("partition %d ran %d supersteps past the cap", p, n)
		}
	}
}

// TestTerminationFoldIgnoresStaleReports folds the duplicated and
// reordered reports the plain transport delivers: a duplicate clean
// report must not lengthen its partition's clean run, and a report
// older than one already folded changes nothing.
func TestTerminationFoldIgnoresStaleReports(t *testing.T) {
	sources := [][]int{{1}, {0}}
	report := func(iter int64, resid float64, seen int64) *ctrlMsg {
		return &ctrlMsg{Part: 1, Iter: iter, Residual: resid, Seen: []int64{seen}}
	}
	const eps = 0.5

	c := newTermination(eps, sources)
	c.fold(report(3, 0, 3))
	c.fold(report(3, 0, 3)) // a duplicate of the clean report
	if c.cleanRun[1] != 1 {
		t.Fatalf("clean run after a duplicated clean report = %d, want 1", c.cleanRun[1])
	}
	c.fold(report(4, 0, 4))
	if c.cleanRun[1] != 2 {
		t.Fatalf("clean run after the next clean report = %d, want 2", c.cleanRun[1])
	}

	c = newTermination(eps, sources)
	c.fold(report(5, 1, 5)) // dirty at 5
	c.fold(report(6, 0, 6))
	state := func() string {
		return fmt.Sprint(c.last, c.resid, c.cleanRun, c.lastDirty, c.lastSeen)
	}
	want := state()
	c.fold(report(4, 2, 4)) // an older dirty report, delivered late
	c.fold(report(6, 2, 6)) // a duplicate superstep carrying other values
	if got := state(); got != want {
		t.Fatalf("stale reports changed the fold: got %s, want %s", got, want)
	}
}

// TestSyncRefusesDuplicatingPlan checks a library call of a Sync run
// on the plain transport under a plan that duplicates frames: it
// returns cluster.ErrSyncRepeats, as the commands refuse the run, while
// the same run on the reliable transport, and a Global_Read run on the
// plain one, run.
func TestSyncRefusesDuplicatingPlan(t *testing.T) {
	g, err := ParseTopoSpec("ring:24")
	if err != nil {
		t.Fatal(err)
	}
	dup := &faults.Plan{Name: "every frame twice",
		Duplicates: []faults.DuplicateWindow{{From: 0, To: 100, Prob: 1}}}
	cfg := Config{G: g, Algo: PageRank, P: 3, Mode: core.Sync, MaxSupersteps: 400,
		Seed: 9, Calib: DefaultCalibration(), Options: cluster.Options{Faults: dup}}
	if _, err := Run(cfg); !errors.Is(err, cluster.ErrSyncRepeats) {
		t.Fatalf("sync run on the plain transport: error %v, want %v", err, cluster.ErrSyncRepeats)
	}
	cfg.Reliable = true
	if _, err := Run(cfg); err != nil {
		t.Fatalf("sync run on the reliable transport: %v", err)
	}
	cfg.Mode, cfg.Age, cfg.Reliable = core.NonStrict, 5, false
	if _, err := Run(cfg); err != nil {
		t.Fatalf("global_read run on the plain transport: %v", err)
	}
}

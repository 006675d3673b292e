package simrace_test

import (
	"reflect"
	"testing"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/sim"
	"nscc/internal/simrace"
)

// runGA executes one small island GA with race checking on and returns
// its race telemetry.
func runGA(t *testing.T, mode core.Mode, age, seed int64) *ga.IslandResult {
	t.Helper()
	cfg := ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
		Mode: mode, Age: age,
		FixedGens: 40, MinGens: 40, MaxGens: 160,
		Target:  1e9, // quality target irrelevant: bound the run by gens
		Seed:    seed,
		Calib:   ga.DefaultCalibration(),
		Options: cluster.Options{RaceCheck: true},
	}
	if mode == core.Sync {
		cfg.Target = 0
	}
	res, err := ga.RunIsland(cfg)
	if err != nil {
		t.Fatalf("RunIsland(%v): %v", mode, err)
	}
	if res.Telemetry == nil || res.Telemetry.Races == nil {
		t.Fatalf("RunIsland(%v): race telemetry missing", mode)
	}
	return &res
}

// checkInvariants asserts the counter algebra every run must satisfy.
func checkInvariants(t *testing.T, res *ga.IslandResult) {
	t.Helper()
	rt := res.Telemetry.Races
	if rt.Reads != rt.Synchronized+rt.ToleratedStale+rt.Unbounded {
		t.Errorf("classified reads don't add up: %d != %d+%d+%d",
			rt.Reads, rt.Synchronized, rt.ToleratedStale, rt.Unbounded)
	}
	if rt.Writes <= 0 || rt.Reads <= 0 {
		t.Errorf("expected activity, got writes=%d reads=%d", rt.Writes, rt.Reads)
	}
}

// TestSyncHasNoRaces: under the synchronous discipline every migrant
// read blocks for the current generation's value, so the checker must
// prove every read synchronized — zero races of either class.
func TestSyncHasNoRaces(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res := runGA(t, core.Sync, 0, seed)
		checkInvariants(t, res)
		rt := res.Telemetry.Races
		if rt.Races() != 0 {
			t.Errorf("seed %d: sync run reported races: tolerated=%d unbounded=%d",
				seed, rt.ToleratedStale, rt.Unbounded)
		}
		if rt.Synchronized != rt.Reads {
			t.Errorf("seed %d: sync run: %d of %d reads not synchronized",
				seed, rt.Reads-rt.Synchronized, rt.Reads)
		}
	}
}

// TestAsyncObservesRaces: fully asynchronous reads carry no staleness
// contract, so the races that occur must be classified unbounded.
func TestAsyncObservesRaces(t *testing.T) {
	sawRaces := false
	for seed := int64(1); seed <= 5; seed++ {
		res := runGA(t, core.Async, 0, seed)
		checkInvariants(t, res)
		rt := res.Telemetry.Races
		if rt.ToleratedStale != 0 {
			t.Errorf("seed %d: async run cannot have tolerated-stale reads, got %d",
				seed, rt.ToleratedStale)
		}
		if rt.Unbounded > 0 {
			sawRaces = true
		}
	}
	if !sawRaces {
		t.Error("no unbounded races observed across any async seed")
	}
}

// TestGlobalReadBoundsRaces: with the age contract in force and no
// read timeouts, every race must be within bound — tolerated-stale > 0
// (the mechanism is exercised) and unbounded == 0, across a seeded
// sweep of ages.
func TestGlobalReadBoundsRaces(t *testing.T) {
	sawTolerated := false
	for _, age := range []int64{0, 5, 10, 20, 30} {
		for seed := int64(1); seed <= 3; seed++ {
			res := runGA(t, core.NonStrict, age, seed)
			checkInvariants(t, res)
			rt := res.Telemetry.Races
			if rt.Unbounded != 0 {
				t.Errorf("age=%d seed=%d: %d unbounded races under the age contract",
					age, seed, rt.Unbounded)
			}
			if rt.MaxLag > age {
				t.Errorf("age=%d seed=%d: racy read staleness %d exceeds the bound",
					age, seed, rt.MaxLag)
			}
			if rt.ToleratedStale > 0 {
				sawTolerated = true
			}
		}
	}
	if !sawTolerated {
		t.Error("no tolerated-stale reads observed across the whole age sweep")
	}
}

// TestDeterministicVerdict: the checker is passive and seeded, so the
// full race telemetry must be identical across repeated runs, and a
// checked run's result must equal an unchecked run's.
func TestDeterministicVerdict(t *testing.T) {
	for _, mode := range []core.Mode{core.Sync, core.Async, core.NonStrict} {
		a := runGA(t, mode, 10, 7)
		b := runGA(t, mode, 10, 7)
		if !reflect.DeepEqual(a.Telemetry.Races, b.Telemetry.Races) {
			t.Errorf("%v: race telemetry differs between identical runs:\n%+v\n%+v",
				mode, a.Telemetry.Races, b.Telemetry.Races)
		}
		if a.Completion != b.Completion || !reflect.DeepEqual(a.Gens, b.Gens) {
			t.Errorf("%v: run results differ between identical runs", mode)
		}
	}
}

// TestCheckerIsPassive: enabling the checker must not move a single
// event — completion time, generation counts, and message counts of a
// checked run equal the unchecked run's.
func TestCheckerIsPassive(t *testing.T) {
	for _, mode := range []core.Mode{core.Sync, core.NonStrict, core.Async} {
		cfg := ga.IslandConfig{
			Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
			Mode: mode, Age: 10,
			FixedGens: 40, MinGens: 40, MaxGens: 160,
			Target: 1e9, Seed: 11, Calib: ga.DefaultCalibration(),
		}
		if mode == core.Sync {
			cfg.Target = 0
		}
		plain, err := ga.RunIsland(cfg)
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		cfg.RaceCheck = true
		checked, err := ga.RunIsland(cfg)
		if err != nil {
			t.Fatalf("checked: %v", err)
		}
		if plain.Completion != checked.Completion ||
			!reflect.DeepEqual(plain.Gens, checked.Gens) ||
			plain.Messages != checked.Messages {
			t.Errorf("%v: race checking perturbed the run: completion %v vs %v, messages %d vs %d",
				mode, plain.Completion, checked.Completion, plain.Messages, checked.Messages)
		}
	}
}

// TestClassifyDirect drives the observer interface by hand (no message
// traffic, so no happens-before edges between tasks) and pins the
// classification rules.
func TestClassifyDirect(t *testing.T) {
	eng := sim.NewEngine(1)
	c := simrace.New(eng)

	// Reader returning the newest stamp is synchronized.
	c.ObserveWrite(0, 0, 5)
	c.ObserveRead(core.ReadInfo{Task: 1, Loc: 0, GotIter: 5, CurIter: 5, Age: 0, Bounded: true, HasValue: true})
	// Stale but within bound, no HB edge: tolerated.
	c.ObserveRead(core.ReadInfo{Task: 1, Loc: 0, GotIter: 3, CurIter: 5, Age: 2, Bounded: true, HasValue: true})
	// Stale past bound (timeout degraded): unbounded.
	c.ObserveRead(core.ReadInfo{Task: 1, Loc: 0, GotIter: 3, CurIter: 9, Age: 2, Bounded: true, TimedOut: true, HasValue: true})
	// Async (no contract): unbounded.
	c.ObserveRead(core.ReadInfo{Task: 2, Loc: 0, GotIter: 3, HasValue: true})
	// Valueless read: counted separately, never classified.
	c.ObserveRead(core.ReadInfo{Task: 2, Loc: 0, Bounded: true})

	got := c.Counts()
	if got.Reads != 4 || got.Synchronized != 1 || got.ToleratedStale != 1 ||
		got.Unbounded != 2 || got.NoValue != 1 || got.TimedOut != 1 {
		t.Errorf("unexpected counts: %+v", got)
	}
	if got.MaxLag != 6 {
		t.Errorf("MaxLag = %d, want 6 (the timed-out read's staleness)", got.MaxLag)
	}

	// Class names are part of the trace contract.
	for cls, name := range map[simrace.Class]string{
		simrace.Synchronized:   "synchronized",
		simrace.ToleratedStale: "tolerated_stale",
		simrace.Unbounded:      "unbounded",
	} {
		if cls.String() != name {
			t.Errorf("Class(%d).String() = %q, want %q", int(cls), cls.String(), name)
		}
	}
}

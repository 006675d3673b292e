// Chaos harness: full-stack application cells (island GA, parallel
// logic sampling) under dozens of randomized-but-seeded fault plans,
// with bounded Global_Read switched on, on the reliable transport and
// again on the plain one, where lost, reordered and duplicated frames
// reach the application. The asserted invariants are liveness (every
// run completes — the engine returns ErrDeadlock otherwise), the
// staleness contract (reads that returned without timing out honored
// the age bound), determinism (identical (seed, plan) pairs replay byte
// for byte), and convergence (with reliable delivery, the GA still
// finds the optimum the fault-free run finds).
package faults_test

import (
	"reflect"
	"testing"

	"nscc/internal/bayes"
	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/sim"
)

const (
	chaosGASeeds    = 40
	chaosBayesSeeds = 12
	chaosAge        = 10
	chaosTimeout    = 50 * sim.Millisecond
)

// chaosGACfg is one GA chaos cell: F1 on 4 islands under Global_Read,
// reliable transport, bounded reads, and the seed's random fault plan.
func chaosGACfg(seed int64) ga.IslandConfig {
	return ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
		Mode: core.NonStrict, Age: chaosAge,
		FixedGens: 40, MinGens: 40, MaxGens: 160,
		Seed:  seed,
		Calib: ga.DefaultCalibration(),
		Options: cluster.Options{
			Faults:      faults.RandomPlan(seed, 4, 2.0),
			Reliable:    true,
			ReadTimeout: chaosTimeout,
		},
	}
}

// TestChaosGA runs every seed on the reliable transport and then on the
// plain one. A plain-transport run is also replayed, and must give the
// same result in every field.
func TestChaosGA(t *testing.T) {
	for _, reliable := range []bool{true, false} {
		for seed := int64(0); seed < chaosGASeeds; seed++ {
			cfg := chaosGACfg(seed)
			cfg.Reliable = reliable
			res, err := ga.RunIsland(cfg)
			if err != nil {
				t.Fatalf("reliable %v seed %d: run did not complete (deadlock?): %v", reliable, seed, err)
			}
			if res.Completion <= 0 {
				t.Fatalf("reliable %v seed %d: nonpositive completion %v", reliable, seed, res.Completion)
			}
			// Staleness contract: every Global_Read that returned without
			// timing out honored the age bound (degraded reads are excluded
			// from the histogram and counted as violations instead).
			if max := res.Telemetry.Staleness.Max; max > chaosAge {
				t.Fatalf("reliable %v seed %d: staleness bound broken: observed %d > age %d", reliable, seed, max, chaosAge)
			}
			// The violation counter must reconcile with the per-task export.
			var perTask int64
			for _, tt := range res.Telemetry.Tasks {
				perTask += tt.ReadTimeouts
			}
			if perTask != res.Telemetry.StalenessViolations {
				t.Fatalf("reliable %v seed %d: StalenessViolations %d != sum of task ReadTimeouts %d",
					reliable, seed, res.Telemetry.StalenessViolations, perTask)
			}
			if !reliable {
				again, err := ga.RunIsland(cfg)
				if err != nil || !reflect.DeepEqual(again, res) {
					t.Fatalf("reliable %v seed %d: chaos replay diverged (err %v):\n%+v\nvs\n%+v", reliable, seed, err, res, again)
				}
			}
		}
	}
}

// TestChaosGADeterminism replays a sample of the chaos cells and
// requires byte-identical results — the FoundationDB-style property
// that makes a chaos failure reproducible from its seed alone.
func TestChaosGADeterminism(t *testing.T) {
	for seed := int64(0); seed < chaosGASeeds; seed += 8 {
		a, err := ga.RunIsland(chaosGACfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ga.RunIsland(chaosGACfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		if a.Completion != b.Completion || a.Best != b.Best || a.Avg != b.Avg ||
			a.Messages != b.Messages || a.NetBytes != b.NetBytes ||
			a.Telemetry.StalenessViolations != b.Telemetry.StalenessViolations {
			t.Fatalf("seed %d: chaos replay diverged:\n%+v\nvs\n%+v", seed, a, b)
		}
		for i := range a.Gens {
			if a.Gens[i] != b.Gens[i] {
				t.Fatalf("seed %d: per-island generations diverged: %v vs %v", seed, a.Gens, b.Gens)
			}
		}
	}
}

// TestChaosGAConvergence compares faulted runs against the fault-free
// run of the same seed: with reliable delivery and bounded reads, the
// GA must still find the optimum the clean run finds.
func TestChaosGAConvergence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		clean := chaosGACfg(seed)
		clean.Faults, clean.Reliable, clean.ReadTimeout = nil, false, 0
		ref, err := ga.RunIsland(clean)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ga.RunIsland(chaosGACfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		if ref.OptimumFound && !res.OptimumFound {
			t.Errorf("seed %d: faults broke convergence: clean best %g, faulted best %g",
				seed, ref.Best, res.Best)
		}
	}
}

func chaosBayesCfg(seed int64) bayes.ParallelConfig {
	bn := bayes.Table2Networks()[0]
	return bayes.ParallelConfig{
		Net: bn, Query: bayes.DefaultQuery(bn), P: 2,
		Mode: core.NonStrict, Age: chaosAge,
		Precision: 0.05, MaxIters: 4000,
		Seed:  seed,
		Calib: bayes.DefaultCalibration(),
		Options: cluster.Options{
			Faults:      faults.RandomPlan(seed+1000, 2, 5.0),
			Reliable:    true,
			ReadTimeout: chaosTimeout,
		},
	}
}

// TestChaosBayes runs every seed on the reliable transport and then on
// the plain one. A plain-transport run is also replayed, and must give
// the same result in every field.
func TestChaosBayes(t *testing.T) {
	for _, reliable := range []bool{true, false} {
		for seed := int64(0); seed < chaosBayesSeeds; seed++ {
			cfg := chaosBayesCfg(seed)
			cfg.Reliable = reliable
			res, err := bayes.RunParallel(cfg)
			if err != nil {
				t.Fatalf("reliable %v seed %d: run did not complete (deadlock?): %v", reliable, seed, err)
			}
			if res.Completion <= 0 || res.Iters <= 0 {
				t.Fatalf("reliable %v seed %d: degenerate run: %+v", reliable, seed, res)
			}
			if res.Prob < 0 || res.Prob > 1 {
				t.Fatalf("reliable %v seed %d: estimate %g outside [0,1]", reliable, seed, res.Prob)
			}
			if max := res.Telemetry.Staleness.Max; max > chaosAge {
				t.Fatalf("reliable %v seed %d: staleness bound broken: observed %d > age %d", reliable, seed, max, chaosAge)
			}
			var perTask int64
			for _, tt := range res.Telemetry.Tasks {
				perTask += tt.ReadTimeouts
			}
			if perTask != res.Telemetry.StalenessViolations {
				t.Fatalf("reliable %v seed %d: StalenessViolations %d != sum of task ReadTimeouts %d",
					reliable, seed, res.Telemetry.StalenessViolations, perTask)
			}
			if !reliable {
				again, err := bayes.RunParallel(cfg)
				if err != nil || !reflect.DeepEqual(again, res) {
					t.Fatalf("reliable %v seed %d: chaos replay diverged (err %v):\n%+v\nvs\n%+v", reliable, seed, err, res, again)
				}
			}
		}
	}
}

func TestChaosBayesDeterminism(t *testing.T) {
	for _, seed := range []int64{0, 5, 11} {
		a, err := bayes.RunParallel(chaosBayesCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := bayes.RunParallel(chaosBayesCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		if a.Completion != b.Completion || a.Prob != b.Prob || a.Iters != b.Iters ||
			a.Rollbacks != b.Rollbacks {
			t.Fatalf("seed %d: chaos replay diverged:\n%+v\nvs\n%+v", seed, a, b)
		}
	}
}

package graph_test

// Chaos harness for the graph workloads: partitioned PageRank/SSSP
// runs under seeded random fault plans with bounded Global_Read
// switched on, on the reliable transport and again on the plain one,
// where lost, reordered and duplicated frames reach the partitions.
// Asserted invariants mirror the faults package's chaos suite: liveness
// (no deadlock — the engine returns ErrDeadlock otherwise), the
// staleness contract (non-timed-out reads honored the age bound, and
// the violation counter reconciles with the per-task export),
// determinism (identical (seed, plan) pairs replay byte for byte), and
// worker-independence of the virtual result.

import (
	"math"
	"reflect"
	"testing"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/graph"
	"nscc/internal/sim"
)

const (
	chaosSeeds   = 16
	chaosAge     = int64(10)
	chaosTimeout = 50 * sim.Millisecond
)

func chaosCfg(t *testing.T, algo graph.Algo, seed int64) graph.Config {
	t.Helper()
	g, err := graph.ParseTopoSpec("clustered:n=40,k=4,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	return graph.Config{
		G: g, Algo: algo, P: 4,
		Mode: core.NonStrict, Age: chaosAge,
		MaxSupersteps: 4000,
		Seed:          seed,
		Calib:         graph.DefaultCalibration(),
		Options: cluster.Options{
			Faults:      faults.RandomPlan(seed, 4, 2.0),
			Reliable:    true,
			ReadTimeout: chaosTimeout,
		},
	}
}

// TestChaosGraph runs every seed on the reliable transport and then on
// the plain one. A plain-transport run is also replayed, and must give
// the same result in every field.
func TestChaosGraph(t *testing.T) {
	for _, reliable := range []bool{true, false} {
		for seed := int64(0); seed < chaosSeeds; seed++ {
			algo := graph.Algos[seed%2]
			cfg := chaosCfg(t, algo, seed)
			cfg.Reliable = reliable
			res, err := graph.Run(cfg)
			if err != nil {
				t.Fatalf("reliable %v seed %d %s: run did not complete (deadlock?): %v", reliable, seed, algo, err)
			}
			if res.Completion <= 0 {
				t.Fatalf("reliable %v seed %d %s: nonpositive completion %v", reliable, seed, algo, res.Completion)
			}
			// Staleness contract: every Global_Read that returned without
			// timing out honored the age bound; degraded reads are excluded
			// from the histogram and counted as violations instead.
			if max := res.Telemetry.Staleness.Max; max > chaosAge {
				t.Fatalf("reliable %v seed %d %s: staleness bound broken: observed %d > age %d",
					reliable, seed, algo, max, chaosAge)
			}
			var perTask int64
			for _, tt := range res.Telemetry.Tasks {
				perTask += tt.ReadTimeouts
			}
			if perTask != res.Telemetry.StalenessViolations {
				t.Fatalf("reliable %v seed %d %s: StalenessViolations %d != sum of task ReadTimeouts %d",
					reliable, seed, algo, res.Telemetry.StalenessViolations, perTask)
			}
			if !reliable {
				again, err := graph.Run(cfg)
				if err != nil || !reflect.DeepEqual(again, res) {
					t.Fatalf("reliable %v seed %d %s: chaos replay diverged (err %v):\n%+v\nvs\n%+v",
						reliable, seed, algo, err, res, again)
				}
			}
		}
	}
}

// TestChaosGraphDeterminism replays a sample of the chaos cells and
// requires byte-identical results, so any chaos failure reproduces
// from its seed alone.
func TestChaosGraphDeterminism(t *testing.T) {
	for seed := int64(0); seed < chaosSeeds; seed += 5 {
		a, err := graph.Run(chaosCfg(t, graph.PageRank, seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := graph.Run(chaosCfg(t, graph.PageRank, seed))
		if err != nil {
			t.Fatal(err)
		}
		if a.Completion != b.Completion || a.Messages != b.Messages || a.NetBytes != b.NetBytes ||
			a.Telemetry.StalenessViolations != b.Telemetry.StalenessViolations {
			t.Fatalf("seed %d: chaos replay diverged:\n%+v\nvs\n%+v", seed, a, b)
		}
		for i := range a.Values {
			if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
				t.Fatalf("seed %d: values[%d] diverged: %v vs %v", seed, i, a.Values[i], b.Values[i])
			}
		}
	}
}

// TestChaosGraphConvergence compares faulted runs against the clean
// run and the sequential oracle: with reliable delivery and bounded
// reads, lossy-network runs must still converge to the same fixed
// point within the documented epsilon.
func TestChaosGraphConvergence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		algo := graph.Algos[seed%2]
		cfg := chaosCfg(t, algo, seed)
		seq := graph.RunSequential(cfg.G, algo, 0, cfg.MaxSupersteps, cfg.Calib)
		res, err := graph.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d %s: faulted run did not converge (residual %g)", seed, algo, res.Residual)
		}
		if d := graph.MaxDiff(res.Values, seq.Values); d > graph.DiffEps {
			t.Errorf("seed %d %s: faulted run diff vs oracle %g > %g", seed, algo, d, graph.DiffEps)
		}
	}
}

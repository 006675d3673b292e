package graph

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/sim"
)

// planSpecs are a ring, a random and a clustered graph, small enough to
// run every variant on at five partitions.
var planSpecs = []string{
	"ring:30",
	"random:n=40,m=120,seed=4",
	"clustered:n=40,k=4,seed=6",
}

// planCfg is the run of v on p partitions of g for algo. The race
// checker is on, so the race telemetry is compared too.
func planCfg(g *Graph, algo Algo, p int, v variant, seed int64) Config {
	return Config{
		G: g, Algo: algo, P: p,
		Mode: v.mode, Age: v.age,
		MaxSupersteps: 4000,
		Seed:          seed,
		Calib:         DefaultCalibration(),
		Options:       cluster.Options{RaceCheck: true},
	}
}

// runFresh is Run, failing the test on an error.
func runFresh(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// checkPlanRun runs cfg on plan and fails unless the result equals want
// in every field, Telemetry included.
func checkPlanRun(t *testing.T, plan *Plan, cfg Config, want Result, what string) {
	t.Helper()
	got, err := plan.Run(cfg)
	if err != nil {
		t.Fatalf("%s: Plan.Run: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Plan.Run differs from a fresh Run:\nplan:  %+v\nfresh: %+v", what, got, want)
	}
}

// TestPlanRunMatchesFresh holds Plan.Run to fresh Run calls on a ring,
// a random and a clustered graph, for both algorithms at P = 1, 2 and
// 5 and all seven variants. The variants run on one plan forwards and
// then backwards, so a run that wrote the plan's layout or operands
// would change a later run's result.
func TestPlanRunMatchesFresh(t *testing.T) {
	for _, spec := range planSpecs {
		g, err := ParseTopoSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algos {
			for _, p := range []int{1, 2, 5} {
				const seed = 23
				want := make([]Result, len(oracleVariants))
				for i, v := range oracleVariants {
					want[i] = runFresh(t, planCfg(g, algo, p, v, seed))
				}
				plan, err := NewPlan(g, algo, p)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range oracleVariants {
					checkPlanRun(t, plan, planCfg(g, algo, p, v, seed), want[i],
						fmt.Sprintf("%s %s P=%d %s, forwards", spec, algo, p, v.name))
				}
				for i := len(oracleVariants) - 1; i >= 0; i-- {
					v := oracleVariants[i]
					checkPlanRun(t, plan, planCfg(g, algo, p, v, seed), want[i],
						fmt.Sprintf("%s %s P=%d %s, backwards", spec, algo, p, v.name))
				}
			}
		}
	}
}

// TestPlanRunRejectsMismatch checks that a config naming another graph,
// algorithm or partition count than its plan is an error, not a run on
// the wrong layout, and that NewPlan rejects a missing graph, fewer
// than one partition and more partitions than vertices.
func TestPlanRunRejectsMismatch(t *testing.T) {
	const spec = "random:n=40,m=120,seed=4"
	g, err := ParseTopoSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(g, PageRank, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := planCfg(g, PageRank, 4, variant{"gr10", core.NonStrict, 10}, 3)
	if _, err := plan.Run(base); err != nil {
		t.Fatalf("the plan's own config: %v", err)
	}
	copyOfG, err := ParseTopoSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*Config){
		"an equal copy of the graph": func(c *Config) { c.G = copyOfG },
		"no graph":                   func(c *Config) { c.G = nil },
		"SSSP":                       func(c *Config) { c.Algo = SSSP },
		"P=3":                        func(c *Config) { c.P = 3 },
		"P=5":                        func(c *Config) { c.P = 5 },
		"no superstep cap":           func(c *Config) { c.MaxSupersteps = 0 },
		"a negative age":             func(c *Config) { c.Age = -1 },
	} {
		cfg := base
		edit(&cfg)
		if _, err := plan.Run(cfg); err == nil {
			t.Errorf("%s: Run accepted a config its plan was not built for", name)
		} else if errors.Is(err, sim.ErrDeadlock) {
			t.Errorf("%s: ran until %v instead of rejecting the config", name, err)
		}
	}

	for name, p := range map[string]int{"zero partitions": 0, "negative partitions": -2, "more partitions than vertices": g.N + 1} {
		if _, err := NewPlan(g, PageRank, p); err == nil {
			t.Errorf("NewPlan, %s: no error", name)
		}
	}
	if _, err := NewPlan(nil, PageRank, 2); err == nil {
		t.Error("NewPlan, nil graph: no error")
	}
}

// TestPlanSharedAcrossGoroutines runs the seven variants on one plan
// from two goroutines at once, in opposite orders; under -race any
// write to the shared plan is reported, and each result must still
// equal a fresh run's.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	g, err := ParseTopoSpec("clustered:n=40,k=4,seed=6")
	if err != nil {
		t.Fatal(err)
	}
	const p, seed = 5, 8
	for _, algo := range Algos {
		want := make([]Result, len(oracleVariants))
		for i, v := range oracleVariants {
			want[i] = runFresh(t, planCfg(g, algo, p, v, seed))
		}
		plan, err := NewPlan(g, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(backwards bool) {
				defer wg.Done()
				for k := range oracleVariants {
					i := k
					if backwards {
						i = len(oracleVariants) - 1 - k
					}
					got, err := plan.Run(planCfg(g, algo, p, oracleVariants[i], seed))
					if err != nil {
						t.Errorf("%s %s: %v", algo, oracleVariants[i].name, err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s %s (backwards=%v): a concurrent run differs from a fresh one",
							algo, oracleVariants[i].name, backwards)
					}
				}
			}(r == 1)
		}
		wg.Wait()
	}
}

// TestPublishGarbagePerSuperstep bounds what a partition allocates per
// superstep once a run is under way. A Sync PageRank on a 20000-vertex
// random graph with 16 partitions runs twice, capped at 10 and at 20
// supersteps; it converges only at superstep 24, so both caps bind. The
// longer run's extra allocation, over its extra partition-supersteps,
// must stay under 256 bytes: state blocks, convergence reports and
// event-queue slots are recycled, not allocated per superstep.
func TestPublishGarbagePerSuperstep(t *testing.T) {
	g, err := ParseTopoSpec("random:n=20000,m=80000,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cap int64) (alloc uint64, steps int64) {
		t.Helper()
		cfg := Config{
			G: g, Algo: PageRank, P: 16,
			Mode:          core.Sync,
			MaxSupersteps: cap,
			Seed:          1,
			Calib:         DefaultCalibration(),
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			t.Fatalf("converged under a %d-superstep cap", cap)
		}
		for _, n := range res.Supersteps {
			steps += n
		}
		return after.TotalAlloc - before.TotalAlloc, steps
	}
	const s = 10
	run(s) // warm up whatever the runtime allocates once
	short, shortSteps := run(s)
	long, longSteps := run(2 * s)
	if extra := longSteps - shortSteps; extra != 16*s {
		t.Fatalf("the longer run has %d extra partition-supersteps, want %d", extra, 16*s)
	}
	perStep := float64(int64(long)-int64(short)) / float64(longSteps-shortSteps)
	t.Logf("%.0f bytes allocated per extra partition-superstep", perStep)
	if perStep >= 256 {
		t.Errorf("%.0f bytes allocated per partition-superstep, want under 256", perStep)
	}
}

// TestFaultPlanRecyclesBlocks checks that a run under a fault plan
// recycles state blocks as a clean run does. An Observer notes each
// state block a partition receives, by identity, with the superstep
// stamp it carries (it keeps the identity only and never reads a block
// after its call). In every run some block arrives refilled with a
// later superstep's state, and every arriving block is still referenced
// by the delivery carrying it. A plan that injects nothing refills
// exactly the blocks a clean run refills, and a plan that duplicates
// frames on the plain transport, whose deliveries each hold a reference
// of their own, refills blocks too.
func TestFaultPlanRecyclesBlocks(t *testing.T) {
	g, err := ParseTopoSpec("clustered:n=40,k=4,seed=6")
	if err != nil {
		t.Fatal(err)
	}
	refilled := func(plan *faults.Plan) int {
		stamps := map[*stateBlock]int64{}
		n := 0
		cfg := planCfg(g, PageRank, 4, variant{"async", core.Async, 0}, 9)
		cfg.RaceCheck = false
		cfg.Faults = plan
		cfg.NodeOpts.Observer = func(_ int, u core.Update) {
			b := u.Value.(*stateBlock)
			if b.refs <= 0 {
				t.Errorf("plan %v: a block arrived with %d references", plan, b.refs)
			}
			if at, ok := stamps[b]; ok && at != b.at {
				n++
			}
			stamps[b] = b.at
		}
		res := runFresh(t, cfg)
		if !res.Converged {
			t.Fatalf("plan %v: did not converge", plan)
		}
		return n
	}
	clean := refilled(nil)
	if clean == 0 {
		t.Error("a clean run refilled no block")
	}
	if n := refilled(&faults.Plan{Name: "quiet"}); n != clean {
		t.Errorf("a run under a quiet fault plan refilled %d blocks, a clean run %d", n, clean)
	}
	dup := &faults.Plan{Name: "duplicate", Duplicates: []faults.DuplicateWindow{{From: 0, To: 3600, Prob: 0.5}}}
	if n := refilled(dup); n == 0 {
		t.Error("a run under duplicated frames refilled no block")
	}
}

// FuzzPlanMatchesFresh holds Plan.Run to fresh Run calls over the
// topology's kind and parameters, the algorithm, the partition count,
// the seed and a sequence of variants run on one plan in the fuzzed
// order. Each variant byte picks the mode from its low two bits (3 is
// sync again) and the Global_Read age from the rest; at most four
// variants run per input.
func FuzzPlanMatchesFresh(f *testing.F) {
	f.Add(uint8(0), uint8(24), uint8(0), false, uint8(2), int64(2000), []byte{0, 1, 2 + 4*10})
	f.Add(uint8(1), uint8(40), uint8(80), true, uint8(4), int64(2001), []byte{2 + 4*30, 2, 1, 0})
	f.Add(uint8(2), uint8(36), uint8(3), false, uint8(0), int64(-3), []byte{2 + 4*5, 1})
	f.Add(uint8(2), uint8(50), uint8(5), true, uint8(3), int64(7), []byte{1, 2 + 4*20, 3})
	f.Fuzz(func(t *testing.T, kind, n, param uint8, sssp bool, p uint8, seed int64, variants []byte) {
		nv := int(n)%48 + 2
		var spec string
		switch kind % 3 {
		case 0:
			spec = fmt.Sprintf("ring:%d", nv)
		case 1:
			spec = fmt.Sprintf("random:n=%d,m=%d,seed=%d", nv, int(param)%(3*nv)+1, seed)
		default:
			spec = fmt.Sprintf("clustered:n=%d,k=%d,seed=%d", nv, int(param)%(nv/2)+1, seed)
		}
		g, err := ParseTopoSpec(spec)
		if err != nil {
			t.Skipf("%s: %v", spec, err)
		}
		algo := PageRank
		if sssp {
			algo = SSSP
		}
		procs := min(int(p)%5+1, g.N)
		if len(variants) > 4 {
			variants = variants[:4]
		}
		plan, err := NewPlan(g, algo, procs)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range variants {
			v := variant{mode: core.Mode(b & 3 % 3), age: int64(b >> 2)}
			v.name = v.mode.String()
			cfg := planCfg(g, algo, procs, v, seed)
			cfg.MaxSupersteps = 400
			checkPlanRun(t, plan, cfg, runFresh(t, cfg),
				fmt.Sprintf("%s %s P=%d seed=%d variant %d (%s age %d)", spec, algo, procs, seed, k, v.mode, v.age))
		}
	})
}

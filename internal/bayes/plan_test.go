package bayes

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nscc/internal/core"
	"nscc/internal/sim"
)

// planVariant is one run on a plan: Figure 3's coherence variants plus
// the random-defaults ablation.
type planVariant struct {
	mode    core.Mode
	age     int64
	randDef bool
}

// planVariants are Figure 3's seven programs (sync, async, gr(0..30))
// and one random-defaults run.
var planVariants = []planVariant{
	{mode: core.Sync}, {mode: core.Async},
	{mode: core.NonStrict, age: 0}, {mode: core.NonStrict, age: 5},
	{mode: core.NonStrict, age: 10}, {mode: core.NonStrict, age: 20},
	{mode: core.NonStrict, age: 30},
	{mode: core.NonStrict, age: 10, randDef: true},
}

// planCfg is a short run of v: a loose precision and a low iteration
// cap keep every variant, async at k-way partitions included, quick.
func planCfg(bn *Network, q Query, p int, seed int64, v planVariant) ParallelConfig {
	return ParallelConfig{
		Net: bn, Query: q, P: p, Mode: v.mode, Age: v.age,
		Precision: 0.1, MaxIters: 1500, Seed: seed,
		Calib: DefaultCalibration(), RandomDefaults: v.randDef,
	}
}

// runFresh is RunParallel, failing the test on an error.
func runFresh(t *testing.T, cfg ParallelConfig) ParallelResult {
	t.Helper()
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	return res
}

// checkPlanRun runs cfg on plan and fails unless the result equals want
// in every field, Telemetry included.
func checkPlanRun(t *testing.T, plan *Plan, cfg ParallelConfig, want ParallelResult, what string) {
	t.Helper()
	got, err := plan.Run(cfg)
	if err != nil {
		t.Fatalf("%s: Plan.Run: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Plan.Run differs from a fresh RunParallel:\nplan:  %+v\nfresh: %+v", what, got, want)
	}
}

// TestPlanRunMatchesFresh holds Plan.Run to fresh RunParallel calls on
// every Table 2 network at P = 1, 2 and 3 (3 takes the k-way
// partitioner), for Figure 3's seven variants and a random-defaults
// run. The variants run on one plan forwards and then backwards, so a
// run that wrote the plan's partition, locations, tables or defaults
// would change a later run's result.
func TestPlanRunMatchesFresh(t *testing.T) {
	for _, bn := range Table2Networks() {
		q := DefaultQuery(bn)
		for _, p := range []int{1, 2, 3} {
			const seed = 41
			want := make([]ParallelResult, len(planVariants))
			for i, v := range planVariants {
				want[i] = runFresh(t, planCfg(bn, q, p, seed, v))
			}
			plan, err := NewPlan(bn, q, p, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range planVariants {
				checkPlanRun(t, plan, planCfg(bn, q, p, seed, v), want[i],
					fmt.Sprintf("%s P=%d %+v, forwards", bn.Name, p, v))
			}
			for i := len(planVariants) - 1; i >= 0; i-- {
				v := planVariants[i]
				checkPlanRun(t, plan, planCfg(bn, q, p, seed, v), want[i],
					fmt.Sprintf("%s P=%d %+v, backwards", bn.Name, p, v))
			}
		}
	}
}

// TestPlanRunRejectsMismatch checks that a config naming another
// network, query, processor count or seed than its plan is an error,
// not a run on the wrong partition, and that NewPlan rejects a missing
// network, fewer than one processor and a node of more states than an
// int8 holds.
func TestPlanRunRejectsMismatch(t *testing.T) {
	bn := Table2Networks()[0]
	q := DefaultQuery(bn)
	plan, err := NewPlan(bn, q, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := planCfg(bn, q, 2, 5, planVariant{mode: core.NonStrict, age: 10})

	// The same query in a fresh map is the plan's query.
	same := base
	same.Query.Evidence = map[int]int{}
	for n, s := range q.Evidence {
		same.Query.Evidence[n] = s
	}
	if _, err := plan.Run(same); err != nil {
		t.Fatalf("an equal query in another map: %v", err)
	}

	var evNode, evState int
	for n, s := range q.Evidence {
		evNode, evState = n, s
	}
	mismatch := map[string]func(*ParallelConfig){
		"an equal copy of the network": func(c *ParallelConfig) { c.Net = Table2Networks()[0] },
		"P=3":                          func(c *ParallelConfig) { c.P = 3 },
		"P=1":                          func(c *ParallelConfig) { c.P = 1 },
		"seed 6":                       func(c *ParallelConfig) { c.Seed = 6 },
		"query node":                   func(c *ParallelConfig) { c.Query.Node-- },
		"query state":                  func(c *ParallelConfig) { c.Query.State++ },
		"no evidence":                  func(c *ParallelConfig) { c.Query.Evidence = nil },
		"another evidence state": func(c *ParallelConfig) {
			c.Query.Evidence = map[int]int{evNode: evState + 1}
		},
		"another evidence node": func(c *ParallelConfig) {
			c.Query.Evidence = map[int]int{evNode + 1: evState}
		},
		"extra evidence": func(c *ParallelConfig) {
			c.Query.Evidence = map[int]int{evNode: evState, 0: 0}
		},
	}
	for name, edit := range mismatch {
		cfg := base
		edit(&cfg)
		if _, err := plan.Run(cfg); err == nil {
			t.Errorf("%s: Run accepted a config its plan was not built for", name)
		} else if errors.Is(err, sim.ErrDeadlock) {
			t.Errorf("%s: ran until %v instead of rejecting the config", name, err)
		}
	}

	// The plan keeps its own evidence: editing the caller's map after
	// NewPlan makes the edited query a mismatch.
	ev := map[int]int{evNode: evState}
	own, err := NewPlan(bn, Query{Node: q.Node, State: q.State, Evidence: ev}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev[0] = 1
	edited := base
	edited.Query.Evidence = ev
	if _, err := own.Run(edited); err == nil {
		t.Error("Run accepted evidence edited after NewPlan")
	}
	if _, err := own.Run(base); err != nil {
		t.Errorf("the plan's own query after the caller's edit: %v", err)
	}

	for name, p := range map[string]int{"zero processors": 0, "negative processors": -2} {
		if _, err := NewPlan(bn, q, p, 5); err == nil {
			t.Errorf("NewPlan, %s: no error", name)
		}
	}
	if _, err := NewPlan(nil, q, 2, 5); err == nil {
		t.Error("NewPlan, nil network: no error")
	}
	// Sample rows, bundles and the ledger hold a state in an int8.
	wide := &Network{Name: "wide", Nodes: []Node{{Name: "w", States: 128, CPT: [][]float64{make([]float64, 128)}}}}
	wide.Nodes[0].CPT[0][0] = 1
	if _, err := NewPlan(wide, Query{}, 1, 5); err == nil {
		t.Error("NewPlan, a node of 128 states: no error")
	}
}

// TestPlanSharedAcrossGoroutines runs Figure 3's variants on one plan
// from two goroutines at once, in opposite orders; under -race any write
// to the shared plan is reported, and each result must still equal a
// fresh run's.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	bn := Table2Networks()[1]
	q := DefaultQuery(bn)
	const p, seed = 3, 8
	want := make([]ParallelResult, len(planVariants))
	for i, v := range planVariants {
		want[i] = runFresh(t, planCfg(bn, q, p, seed, v))
	}
	plan, err := NewPlan(bn, q, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(backwards bool) {
			defer wg.Done()
			for k := range planVariants {
				i := k
				if backwards {
					i = len(planVariants) - 1 - k
				}
				got, err := plan.Run(planCfg(bn, q, p, seed, planVariants[i]))
				if err != nil {
					t.Errorf("%+v: %v", planVariants[i], err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%+v (backwards=%v): a concurrent run differs from a fresh one", planVariants[i], backwards)
				}
			}
		}(g == 1)
	}
	wg.Wait()
}

// FuzzPlanMatchesFresh holds Plan.Run to fresh RunParallel calls over
// the network, processor count, seed and a sequence of variants run on
// one plan in the fuzzed order. Each variant byte picks the mode from
// its low two bits (3 is sync again), the Global_Read age from the next
// five and, with its top bit, random defaults; at most four variants
// run per input.
func FuzzPlanMatchesFresh(f *testing.F) {
	nets := Table2Networks()
	queries := make([]Query, len(nets))
	for i, bn := range nets {
		queries[i] = DefaultQuery(bn)
	}
	f.Add(uint8(0), uint8(1), int64(2000), []byte{0, 1, 2 + 4*10})
	f.Add(uint8(1), uint8(2), int64(2001), []byte{2 + 4*30, 2, 1, 0})
	f.Add(uint8(2), uint8(1), int64(-3), []byte{0x80 | (2 + 4*5), 1})
	f.Add(uint8(3), uint8(3), int64(7), []byte{1, 2 + 4*20, 0x80})
	f.Fuzz(func(t *testing.T, net, p uint8, seed int64, variants []byte) {
		i := int(net) % len(nets)
		bn, q, procs := nets[i], queries[i], int(p)%4+1
		if len(variants) > 4 {
			variants = variants[:4]
		}
		plan, err := NewPlan(bn, q, procs, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range variants {
			v := planVariant{mode: core.Mode(b & 3 % 3), age: int64(b>>2) & 31, randDef: b&0x80 != 0}
			cfg := planCfg(bn, q, procs, seed, v)
			checkPlanRun(t, plan, cfg, runFresh(t, cfg),
				fmt.Sprintf("%s P=%d seed=%d variant %d (%+v)", bn.Name, procs, seed, k, v))
		}
	})
}

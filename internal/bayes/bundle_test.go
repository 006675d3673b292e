package bayes

import (
	"testing"

	"nscc/internal/core"
	"nscc/internal/faults"
)

// TestFaultPlanRecyclesBundles checks that a run under a fault plan
// recycles interface bundles as a clean run does: a Global_Read run on
// network A at P = 2 writes hundreds of bundles (antimessages,
// corrections and batches) but allocates a few dozen, the rest coming
// back through its writers' free lists. A plan that injects nothing
// allocates exactly the bundles a clean run allocates, and a plan that
// duplicates frames on the plain transport, whose deliveries each hold
// a reference of their own, recycles too. Under the nscc_poison build a
// partition that observes a released bundle panics, and a released
// bundle's rows read -1.
func TestFaultPlanRecyclesBundles(t *testing.T) {
	bn := Table2Networks()[0]
	q := DefaultQuery(bn)
	plan, err := NewPlan(bn, q, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	made := func(fp *faults.Plan) (int, ParallelResult) {
		cfg := ParallelConfig{
			Net: bn, Query: q, P: 2, Mode: core.NonStrict, Age: 10,
			Precision: 0.03, MaxIters: 4000, Seed: 5, Calib: DefaultCalibration(),
		}
		cfg.Faults = fp
		res, ws, err := plan.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, w := range ws {
			n += w.bundles.made
		}
		if !res.ReachedPrecision {
			t.Fatalf("plan %v: did not converge", fp)
		}
		if int64(n)*10 > res.Messages {
			t.Errorf("plan %v: %d bundles made for %d messages, want under a tenth", fp, n, res.Messages)
		}
		return n, res
	}
	clean, cleanRes := made(nil)
	if n, _ := made(&faults.Plan{Name: "quiet"}); n != clean {
		t.Errorf("a run under a quiet fault plan made %d bundles, a clean run %d", n, clean)
	}
	dup := &faults.Plan{Name: "duplicate", Duplicates: []faults.DuplicateWindow{{From: 0, To: 3600, Prob: 0.5}}}
	if _, res := made(dup); res.Telemetry.Net.Delivered <= cleanRes.Telemetry.Net.Delivered {
		t.Errorf("a run under duplicated frames delivered %d frames, a clean run %d",
			res.Telemetry.Net.Delivered, cleanRes.Telemetry.Net.Delivered)
	}
}

// TestBundleReleaseBelowZeroPanics checks that a bundle released more
// often than retained panics rather than enter its free list twice.
func TestBundleReleaseBelowZeroPanics(t *testing.T) {
	var pool bundlePool
	b := pool.get(0, -1, []int{3, 4}, 0, 2, true)
	b.Retain(1)
	b.Release()
	if len(pool.free) != 1 {
		t.Fatalf("the last release left %d bundles on the free list, want 1", len(pool.free))
	}
	defer func() {
		if recover() == nil {
			t.Error("a release below zero did not panic")
		}
	}()
	b.Release()
}

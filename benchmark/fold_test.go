package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestFoldFixture folds a canned `go tool pprof -traces` output whose
// stacks cover each attribution rule.
func TestFoldFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 15 {
		t.Fatalf("parsed %d samples, want 15", len(samples))
	}
	got := fold(samples)
	// The speed probe's 0.3s are dropped: shares are of the other 4s.
	want := map[string]float64{
		// A math/rand leaf under ga, ga/functions nested under ga, and
		// the slices sort ga called: 2.1s of 4s.
		"ga.cpu_pct": 52.5,
		// The GC mark worker and the benchmark's own hashing: no repo frame.
		"other.cpu_pct": 12.5,
		// A channel handoff, and an unlisted package (trace) folding out.
		"sim.cpu_pct":      11.25,
		"rollback.cpu_pct": 7.5,
		"netsim.cpu_pct":   5,
		// The innermost repo frame wins over its caller, core.
		"pvm.cpu_pct":     3.75,
		"core.cpu_pct":    0,
		"exper.cpu_pct":   2.5,  // runner
		"metrics.cpu_pct": 2.5,  // tseries
		"graph.cpu_pct":   1.25, // a bare memmove it called
		"bayes.cpu_pct":   1.25, // partition

		"leaf.rand_pct":  37.5,
		"leaf.gc_pct":    15, // mark worker, plus mallocgc under netsim
		"leaf.map_pct":   7.5,
		"leaf.sched_pct": 6.25,
		"leaf.sort_pct":  2.5,
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("fold returned %d metrics, want %d: %v", len(got), len(want), got)
	}
	assertSharesSum(t, got)
}

// assertSharesSum checks that the layer shares account for every
// sample.
func assertSharesSum(t *testing.T, m map[string]float64) {
	t.Helper()
	var sum float64
	for _, l := range shareLayers {
		sum += m[l+".cpu_pct"]
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("layer shares sum to %.3f%%, want 100 ± 0.5", sum)
	}
}

func TestParseTracesRejectsBadValue(t *testing.T) {
	in := "-----------+----\n     lots   runtime.futex\n-----------+----\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("parseTraces accepted a sample value that is not a duration")
	}
}

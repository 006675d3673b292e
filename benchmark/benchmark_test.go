package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child
// processes, which run() starts from os.Executable().
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func testSpec(t *testing.T) benchSpec {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloadsMatchSpec checks that BENCHMARK.json names exactly the
// workloads the command runs.
func TestWorkloadsMatchSpec(t *testing.T) {
	s := testSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the command %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryWorkloadTiny runs every workload at its test size, untraced
// and traced, and checks each printed metric against BENCHMARK.json:
// every listed name appears with its unit, and nothing else does.
func TestEveryWorkloadTiny(t *testing.T) {
	s := testSpec(t)
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, mode := range []struct {
			trace string
			want  []specMetric
		}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", wl.name, "--seed", "2000", "--seconds", "1",
				"--trace", mode.trace, "-tiny", "-workdir", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", wl.name, mode.trace, code, stderr.String())
			}
			checkOutput(t, wl.name+" trace "+mode.trace, stdout.String(), mode.want)
		}
	}
}

// TestAgree checks that -agree accepts two sets that match and names
// the workload and metric of each disagreement.
func TestAgree(t *testing.T) {
	sp := testSpec(t)
	set := func(cps, frames float64, digest string) []result {
		var rs []result
		for i, v := range []float64{0.98, 1, 1.02} {
			rs = append(rs, result{Workload: "fig2_ga", Seed: 2000, Digest: digest, Correct: true,
				Metrics: map[string]float64{"cells_per_s": cps * v, "cpu_s_per_cell": 0.5,
					"peak_rss_mb": 12 + float64(i), "setup_s": 0.002}})
		}
		return append(rs, result{Workload: "fig2_ga", Seed: 2000, Trace: true, Digest: digest, Correct: true,
			Metrics: map[string]float64{"netsim.frames": frames}})
	}
	a := set(2, 100, "d1")
	if p := agree(sp, a, set(2.1, 100, "d1"), io.Discard); len(p) != 0 {
		t.Errorf("matching sets disagree: %q", p)
	}
	p := agree(sp, a, set(1, 101, "d2"), io.Discard)
	for _, want := range []string{"fig2_ga cells_per_s", "fig2_ga seed 2000: digest", "fig2_ga seed 2000: netsim.frames"} {
		found := false
		for _, line := range p {
			found = found || strings.HasPrefix(line, want)
		}
		if !found {
			t.Errorf("no disagreement starting %q in %q", want, p)
		}
	}

	// Untraced records carry no simulated counts, so two untraced-only
	// sets leave the counts unchecked.
	untraced := func(rs []result) []result { return rs[:len(rs)-1] }
	p = agree(sp, untraced(a), untraced(set(2, 100, "d1")), io.Discard)
	if len(p) != 1 || !strings.HasPrefix(p[0], "fig2_ga: no seed has a traced run in both sets") {
		t.Errorf("untraced-only sets: got %q, want one unchecked-counts disagreement", p)
	}
	// A traced run in one set only checks nothing either.
	if p := agree(sp, a, untraced(set(2, 100, "d1")), io.Discard); len(p) != 1 {
		t.Errorf("traced in A only: got %q, want one unchecked-counts disagreement", p)
	}
}

// checkOutput checks a run's printed metric lines and its final JSON
// line against the metrics BENCHMARK.json lists for the mode.
func checkOutput(t *testing.T, run, out string, want []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", run, err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", run, last.Correct, last.Attempted, last.Failed, out)
	}
	printed := map[string]string{} // name -> unit, from the metric lines
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 {
			printed[f[0]] = f[2]
		}
	}
	for _, m := range want {
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: result line has %s as %+v, want unit %s", run, m.Name, got, m.Unit)
		}
		if printed[m.Name] != m.Unit {
			t.Errorf("%s: printed %s with unit %q, want %q", run, m.Name, printed[m.Name], m.Unit)
		}
	}
	if len(last.Metrics) != len(want) || len(printed) != len(want) {
		t.Errorf("%s: printed %d metric lines and %d result metrics, BENCHMARK.json lists %d",
			run, len(printed), len(last.Metrics), len(want))
	}
	// A test-size run may be too short for a single profile sample,
	// which leaves every share zero.
	if _, traced := last.Metrics["other.cpu_pct"]; traced {
		shares := map[string]float64{}
		var sum float64
		for _, l := range shareLayers {
			shares[l+".cpu_pct"] = last.Metrics[l+".cpu_pct"].Value
			sum += shares[l+".cpu_pct"]
		}
		if sum != 0 {
			assertSharesSum(t, shares)
		}
	}
}

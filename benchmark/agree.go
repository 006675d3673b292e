package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// specPath is the benchmark definition, relative to the repository root
// the command runs from.
const specPath = "BENCHMARK.json"

// benchSpec is BENCHMARK.json's shape, as far as this command reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var sp benchSpec
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		return sp, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return sp, nil
}

// setupFloorS is the smallest set-up time change that counts: below
// 20 ms, process start-up jitter on a shared box dominates the share
// bound.
const setupFloorS = 0.020

// agreeMain compares two sets of run records, A and B, and exits 0 only
// if they agree: every run correct, equal digests and simulated counts
// for equal (workload, seed), each workload traced at one seed in both
// sets, and end-to-end medians within the bounds.
func agreeMain(aPath, bPath string, stdout, stderr io.Writer) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	a, err := readRecords(aPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readRecords(bPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	problems := agree(sp, a, b, stdout)
	for _, p := range problems {
		fmt.Fprintf(stdout, "DISAGREE %s\n", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "agree: %d and %d runs\n", len(a), len(b))
	return 0
}

func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		rs = append(rs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return rs, nil
}

// agree returns one line per disagreement, printing the median table
// to w as it goes.
func agree(sp benchSpec, a, b []result, w io.Writer) []string {
	var problems []string
	type key struct {
		workload string
		seed     int64
	}
	first := map[key]result{}       // first record of each (workload, seed)
	firstTraced := map[key]result{} // first traced record of each
	tracedIn := map[key]string{}    // the sets with a traced record of each
	seen := map[string]bool{}       // workloads with any record
	for _, set := range []struct {
		name string
		rs   []result
	}{{"A", a}, {"B", b}} {
		for _, r := range set.rs {
			seen[r.Workload] = true
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s %s seed %d: %d of %d cells failed",
					set.name, r.Workload, r.Seed, r.Failed, r.Attempted))
			}
			k := key{r.Workload, r.Seed}
			if f, ok := first[k]; !ok {
				first[k] = r
			} else if f.Digest != r.Digest {
				problems = append(problems, fmt.Sprintf("%s seed %d: digest %s, another run has %s",
					r.Workload, r.Seed, r.Digest, f.Digest))
			}
			if !r.Trace {
				continue
			}
			if !strings.Contains(tracedIn[k], set.name) {
				tracedIn[k] += set.name
			}
			f, ok := firstTraced[k]
			if !ok {
				firstTraced[k] = r
				continue
			}
			for _, m := range countMetrics {
				if f.Metrics[m.name] != r.Metrics[m.name] {
					problems = append(problems, fmt.Sprintf("%s seed %d: %s %v, another run has %v",
						r.Workload, r.Seed, m.name, r.Metrics[m.name], f.Metrics[m.name]))
				}
			}
		}
	}

	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %7s\n", "workload", "metric", "median A", "median B", "B vs A", "bound")
	for _, wl := range workloads {
		if !seen[wl.name] {
			continue
		}
		// Simulated counts are only in traced records: without a traced
		// run of one seed in each set, they went unchecked.
		checked := false
		for k, sets := range tracedIn {
			checked = checked || (k.workload == wl.name && sets == "AB")
		}
		if !checked {
			problems = append(problems, fmt.Sprintf("%s: no seed has a traced run in both sets, so simulated counts are unchecked", wl.name))
		}
		va, vb := untracedMetrics(a, wl.name), untracedMetrics(b, wl.name)
		if len(va) == 0 || len(vb) == 0 {
			problems = append(problems, fmt.Sprintf("%s: untraced runs missing from a set", wl.name))
			continue
		}
		for _, m := range sp.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				problems = append(problems, fmt.Sprintf("%s %s: not measured in both sets", wl.name, m.Name))
				continue
			}
			ma, mb := median(va[m.Name]), median(vb[m.Name])
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %+7.1f%% %6.0f%%\n",
				wl.name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound)
			if worse(m.Name, m.Better, m.Bound, ma, mb) || worse(m.Name, m.Better, m.Bound, mb, ma) {
				problems = append(problems, fmt.Sprintf("%s %s: medians %.6g (A) and %.6g (B) differ by more than %.0f%%",
					wl.name, m.Name, ma, mb, 100*m.Bound))
			}
		}
	}
	return problems
}

// untracedMetrics gathers each metric's values over a set's untraced
// runs of one workload.
func untracedMetrics(rs []result, workload string) map[string][]float64 {
	vals := map[string][]float64{}
	for _, r := range rs {
		if r.Workload != workload || r.Trace {
			continue
		}
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	return vals
}

// worse reports whether value is worse than base by more than the bound.
func worse(name, better string, bound, base, value float64) bool {
	delta := value - base
	if better == "higher" {
		delta = -delta
	}
	if name == "setup_s" && delta <= setupFloorS {
		return false
	}
	return delta > bound*math.Abs(base)
}

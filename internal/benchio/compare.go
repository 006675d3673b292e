package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Delta is one metric's before/after pair in a snapshot comparison.
type Delta struct {
	Name   string  // benchmark or sweep name
	Metric string  // "ns_per_op", "allocs_per_op", "bytes_per_op", "cells_per_sec"
	Before float64 // baseline value
	After  float64 // current value
	Gated  bool    // counts toward the regression verdict
}

// Change returns the fractional change, e.g. +0.12 for 12% worse on a
// lower-is-better metric.
func (d Delta) Change() float64 {
	if d.Before == 0 {
		return 0
	}
	return d.After/d.Before - 1
}

// CompareOptions configures the regression gate.
type CompareOptions struct {
	// Threshold is the fractional regression limit on gated metrics
	// (0.10 = fail when a metric got more than 10% worse).
	Threshold float64
	// AllocsOnly gates on allocs/op alone — the machine-independent
	// column — so CI can compare against a baseline recorded elsewhere.
	// Time metrics are still reported, just not gated.
	AllocsOnly bool
}

// Comparison is the result of diffing two snapshots.
type Comparison struct {
	Deltas      []Delta // every matched metric, stable order
	Regressions []Delta // gated metrics beyond the threshold
	// OnlyBase / OnlyCur list benchmarks present in one side only — a
	// renamed or dropped benchmark must be visible, not silently skipped.
	OnlyBase []string
	OnlyCur  []string
}

// EnvMismatch describes why two snapshots are not comparable on time
// metrics (different machine class), or returns "" when they are.
// Snapshots predating the environment stamp are treated as unknown
// machines.
func EnvMismatch(base, cur *Snapshot) string {
	if base.GOOS == "" || base.GOARCH == "" || base.CPUs == 0 {
		return "baseline lacks an environment stamp (goos/goarch/cpus)"
	}
	if cur.GOOS == "" || cur.GOARCH == "" || cur.CPUs == 0 {
		return "current snapshot lacks an environment stamp (goos/goarch/cpus)"
	}
	if base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH {
		return fmt.Sprintf("platform differs: baseline %s/%s, current %s/%s",
			base.GOOS, base.GOARCH, cur.GOOS, cur.GOARCH)
	}
	if base.CPUs != cur.CPUs {
		return fmt.Sprintf("CPU count differs: baseline %d, current %d", base.CPUs, cur.CPUs)
	}
	return ""
}

// Compare diffs cur against base. Gated metrics are ns/op and
// allocs/op on the microbenchmarks (allocs/op alone with AllocsOnly);
// bytes/op and sweep throughput are reported but never gated.
func Compare(base, cur *Snapshot, o CompareOptions) Comparison {
	var c Comparison
	baseMicro := map[string]Micro{}
	for _, m := range base.Micro {
		baseMicro[m.Name] = m
	}
	curMicro := map[string]Micro{}
	for _, m := range cur.Micro {
		curMicro[m.Name] = m
	}
	for _, m := range cur.Micro {
		b, ok := baseMicro[m.Name]
		if !ok {
			c.OnlyCur = append(c.OnlyCur, m.Name)
			continue
		}
		c.Deltas = append(c.Deltas,
			Delta{Name: m.Name, Metric: "ns_per_op", Before: b.NsPerOp, After: m.NsPerOp, Gated: !o.AllocsOnly},
			Delta{Name: m.Name, Metric: "allocs_per_op", Before: b.AllocsOp, After: m.AllocsOp, Gated: true},
			Delta{Name: m.Name, Metric: "bytes_per_op", Before: b.BytesOp, After: m.BytesOp},
		)
	}
	for _, m := range base.Micro {
		if _, ok := curMicro[m.Name]; !ok {
			c.OnlyBase = append(c.OnlyBase, m.Name)
		}
	}
	sort.Strings(c.OnlyBase)
	sort.Strings(c.OnlyCur)

	baseSweep := map[string]SweepStat{}
	for _, s := range base.Sweeps {
		baseSweep[s.Name] = s
	}
	for _, s := range cur.Sweeps {
		if b, ok := baseSweep[s.Name]; ok {
			// Higher is better for throughput; recorded with Before/After
			// as-is, consumers interpret the direction by metric name.
			c.Deltas = append(c.Deltas,
				Delta{Name: s.Name, Metric: "cells_per_sec", Before: b.CellsPerSec, After: s.CellsPerSec})
		}
	}

	for _, d := range c.Deltas {
		if d.Gated && d.Before > 0 && d.Change() > o.Threshold {
			c.Regressions = append(c.Regressions, d)
		}
	}
	return c
}

// ReadFile loads a BENCH_*.json snapshot. A file that parses as JSON
// but has no go_version stamp is rejected: it is some other artifact.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.GoVersion == "" {
		return nil, fmt.Errorf("%s: not a BENCH snapshot (no go_version field)", path)
	}
	return &s, nil
}

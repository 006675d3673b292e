package exper

import (
	"bytes"
	"strings"
	"testing"

	"nscc/internal/core"
	"nscc/internal/ga/functions"
)

// tinyOpts keeps experiment tests fast while preserving structure.
func tinyOpts() Options {
	opts := Quick()
	opts.Trials = 1
	opts.SyncGens = 50
	opts.Procs = []int{2}
	opts.Precision = 0.04
	return opts
}

func TestVariantString(t *testing.T) {
	if (Variant{Mode: core.Sync}).String() != "sync" {
		t.Fatal("sync name")
	}
	if (Variant{Mode: core.NonStrict, Age: 7}).String() != "gr(7)" {
		t.Fatal("gr name")
	}
	vs := Variants()
	if len(vs) != 2+len(Ages) {
		t.Fatalf("variants = %v", vs)
	}
}

func TestProfiles(t *testing.T) {
	q, f := Quick(), Full()
	if q.Trials >= f.Trials || q.SyncGens >= f.SyncGens {
		t.Fatal("quick profile is not smaller than full")
	}
	if f.Trials != 25 || f.SyncGens != 1000 || f.Precision != 0.01 {
		t.Fatalf("full profile is not paper scale: %+v", f)
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	rows := Table1(&buf)
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.OptimumOK {
			t.Errorf("F%d: value at optimum %v does not match declared min %v",
				r.Fn.No, r.AtOptimum, r.Fn.Min)
		}
	}
	out := buf.String()
	for _, want := range []string{"sphere", "foxholes", "griewank", "-4189"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOpts()
	rows, err := Table2(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.EdgeCut <= 0 || r.EdgeCut >= r.Net.Edges() {
			t.Errorf("%s: edge-cut %d of %d edges", r.Net.Name, r.EdgeCut, r.Net.Edges())
		}
		if r.Serial <= 0 {
			t.Errorf("%s: no serial time", r.Net.Name)
		}
		if r.SerialRef == 0 {
			t.Errorf("%s: missing paper reference time", r.Net.Name)
		}
	}
	// Table 2's qualitative facts: Hailfinder has by far the smallest
	// cut, and the KL cuts for the random nets are in the paper's
	// 20-30 range.
	if rows[3].EdgeCut >= rows[0].EdgeCut {
		t.Errorf("Hailfinder cut %d not below A's %d", rows[3].EdgeCut, rows[0].EdgeCut)
	}
	for _, r := range rows[:3] {
		if r.EdgeCut < 10 || r.EdgeCut > 40 {
			t.Errorf("%s: cut %d outside Table 2 scale", r.Net.Name, r.EdgeCut)
		}
	}
}

func TestFigure1Report(t *testing.T) {
	var buf bytes.Buffer
	exact, sampled := Figure1Report(&buf, tinyOpts())
	if exact <= 0 || exact >= 1 {
		t.Fatalf("exact = %v", exact)
	}
	diff := exact - sampled
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.08 {
		t.Fatalf("sampled %v far from exact %v", sampled, exact)
	}
	if !strings.Contains(buf.String(), "0.80") {
		t.Error("report does not show the paper's p(D=t|B=t,C=t)=0.80")
	}
}

func TestGACellStructure(t *testing.T) {
	opts := tinyOpts()
	row, err := GACell(functions.F1, 2, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.Fn != functions.F1 || row.P != 2 {
		t.Fatalf("row identity wrong: %+v", row)
	}
	for _, v := range Variants() {
		s, ok := row.Speedup[v]
		if !ok || s <= 0 {
			t.Fatalf("missing/zero speedup for %v: %v", v, s)
		}
	}
	if row.BestGR <= 0 || row.BestComp < 1 {
		t.Fatalf("derived metrics wrong: %+v", row)
	}
	if row.Improve != row.BestGR/row.BestComp {
		t.Fatal("improve not derived from best-gr/best-comp")
	}
}

func TestGACellDeterministic(t *testing.T) {
	opts := tinyOpts()
	a, err := GACell(functions.F5, 2, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GACell(functions.F5, 2, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Variants() {
		if a.Speedup[v] != b.Speedup[v] {
			t.Fatalf("%v speedup differs across identical runs", v)
		}
	}
}

func TestFigure2SmallRun(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOpts()
	res, err := Figure2(&buf, opts, []*functions.Function{functions.F1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestCase) != 1 || len(res.Average) != 1 || len(res.PerFunc) != 1 {
		t.Fatalf("row counts: %d/%d/%d", len(res.BestCase), len(res.Average), len(res.PerFunc))
	}
	// With a single function, the average row must equal the best case.
	for _, v := range Variants() {
		if res.Average[0].Speedup[v] != res.BestCase[0].Speedup[v] {
			t.Fatalf("average != best case for single function (%v)", v)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 2a") || !strings.Contains(out, "Figure 2b") {
		t.Error("output missing captions")
	}
	// Removal of the barrier must help: the best Global_Read variant
	// should beat sync in this regime.
	sync := res.BestCase[0].Speedup[Variant{Mode: core.Sync}]
	if res.BestCase[0].BestGR <= sync {
		t.Errorf("best GR %.2f not above sync %.2f", res.BestCase[0].BestGR, sync)
	}
}

func TestFigure4SmallRun(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOpts()
	res, err := Figure4(&buf, opts, []*functions.Function{functions.F1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestCase) != len(Figure4Loads) || len(res.Average) != len(Figure4Loads) {
		t.Fatalf("row counts %d/%d", len(res.BestCase), len(res.Average))
	}
	for i, r := range res.BestCase {
		if r.LoadBps != Figure4Loads[i] {
			t.Fatalf("row %d load %v", i, r.LoadBps)
		}
	}
	// Background load must not make the synchronous program faster.
	v := Variant{Mode: core.Sync}
	if res.BestCase[len(res.BestCase)-1].Speedup[v] > res.BestCase[0].Speedup[v]*1.05 {
		t.Errorf("sync sped up under 2 Mbps load: %v vs %v",
			res.BestCase[3].Speedup[v], res.BestCase[0].Speedup[v])
	}
}

// TestFigure4WithoutF1 runs Figure 4 on a bed without function 1: like
// Figure 2, it has no best-case rows then, in its report or its CSV,
// instead of one all-zero row per load.
func TestFigure4WithoutF1(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure4(&buf, tinyOpts(), []*functions.Function{functions.F5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestCase) != 0 || len(res.Average) != len(Figure4Loads) {
		t.Fatalf("%d best-case and %d average rows, want 0 and %d", len(res.BestCase), len(res.Average), len(Figure4Loads))
	}
	report := buf.String()
	if best := report[:strings.Index(report, "Figure 4b")]; strings.Count(best, "\n") != 2 {
		t.Errorf("best-case table is not just its caption and header:\n%s", best)
	}
	var csv bytes.Buffer
	if err := WriteGARowsCSV(&csv, append(append([]GARow{}, res.BestCase...), res.Average...)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "average,0,") {
		t.Errorf("CSV has rows for zero processors:\n%s", csv.String())
	}
}

func TestFigure3SmallRun(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOpts()
	res, err := Figure3(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d networks", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, v := range Variants() {
			if r.Speedup[v] <= 0 {
				t.Fatalf("%s: zero speedup for %v", r.Net.Name, v)
			}
		}
		// The best Global_Read setting always beats the synchronous
		// program (removing per-phase exchanges and the barrier).
		syncS := r.Speedup[Variant{Mode: core.Sync}]
		if r.BestGR <= syncS {
			t.Errorf("%s: best GR %.2f does not beat sync %.2f", r.Net.Name, r.BestGR, syncS)
		}
	}
	// The paper's central result — best GR beats every competitor — is
	// asserted on the 4-network average (per-network, a single loose-
	// precision trial is too noisy).
	if res.Average.BestGR <= res.Average.Speedup[Variant{Mode: core.Sync}] {
		t.Error("average: best GR does not beat sync")
	}
	if res.Average.BestGR <= res.Average.Speedup[Variant{Mode: core.Async}]*0.9 {
		t.Errorf("average: best GR %.2f far below async %.2f",
			res.Average.BestGR, res.Average.Speedup[Variant{Mode: core.Async}])
	}
	if !strings.Contains(buf.String(), "average") {
		t.Error("output missing average row")
	}
}

func TestCSVWriters(t *testing.T) {
	opts := tinyOpts()
	row, err := GACell(functions.F1, 2, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGARowsCSV(&buf, []GARow{row}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != 1+len(Variants()) {
		t.Fatalf("CSV has %d lines, want header + %d variants", lines, len(Variants()))
	}
	if !strings.Contains(out, "F1,2,0,sync,") {
		t.Fatalf("CSV missing expected row prefix:\n%s", out)
	}

	res, err := Figure3(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteBayesRowsCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Hailfinder,gr(10),") {
		t.Fatalf("bayes CSV missing rows:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "average,") {
		t.Fatal("bayes CSV missing average")
	}
}

func TestFigure2OnSwitch(t *testing.T) {
	opts := tinyOpts()
	bus, err := Figure2(nil, opts, []*functions.Function{functions.F1})
	if err != nil {
		t.Fatal(err)
	}
	opts.UseSwitch = true
	sw, err := Figure2(nil, opts, []*functions.Function{functions.F1})
	if err != nil {
		t.Fatal(err)
	}
	// The synchronous variant is the most network-bound, so the fast
	// fabric must help it the most clearly.
	v := Variant{Mode: core.Sync}
	if sw.BestCase[0].Speedup[v] < bus.BestCase[0].Speedup[v] {
		t.Fatalf("switch sync speedup %v below bus %v",
			sw.BestCase[0].Speedup[v], bus.BestCase[0].Speedup[v])
	}
}

func TestAgeSweep(t *testing.T) {
	opts := tinyOpts()
	res, err := AgeSweep(nil, opts, functions.F1, 4, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 || len(res.Dynamic) != 1 {
		t.Fatalf("row counts %d/%d", len(res.Rows), len(res.Dynamic))
	}
	age, speedup := res.BestAge(0)
	if speedup <= 0 {
		t.Fatalf("best age %d speedup %v", age, speedup)
	}
	// Blocking must decrease monotonically-ish with age: the largest
	// age blocks no more than lockstep.
	var age0, age50 AgeSweepRow
	for _, r := range res.Rows {
		if r.Age == 0 {
			age0 = r
		}
		if r.Age == 50 {
			age50 = r
		}
	}
	if age50.Blocked > age0.Blocked {
		t.Fatalf("age 50 blocked longer (%v) than age 0 (%v)", age50.Blocked, age0.Blocked)
	}
	// The dynamic variant must be within reach of the best fixed age.
	if res.Dynamic[0].Speedup < speedup*0.5 {
		t.Fatalf("dynamic age speedup %v far below best fixed %v", res.Dynamic[0].Speedup, speedup)
	}
}

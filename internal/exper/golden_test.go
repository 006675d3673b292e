package exper

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nscc/internal/ga/functions"
)

// Golden sweep pins.
//
// Each sweep's serialized output — the plotting CSV where one exists
// plus a full-precision dump of every result field — is committed as
// testdata/golden/<sweep>.txt, and each constant below is the SHA-256
// of that file, captured from the seed state of the repo (the commit
// immediately before the hot-path optimization PR). The determinism
// contract is that no optimization may change a single result byte:
// any change to the RNG draw sequence, float accumulation order,
// selection logic, or message timing shows up as a differing line,
// and the failure names the first one.
//
// The fixtures run at reduced scale (fewer functions/trials than the
// benchmark profile) but exercise every code path the full sweeps do:
// serial baselines, sync/async/Global_Read islands at every age,
// migration, roulette selection, mutation, bayes rollbacks, and the
// network model. Every sweep runs at workers=1 and workers=8 and must
// match its file at both.
//
// If a pin legitimately must change (an intentional result-affecting
// change, never a perf-only one), rewrite the files with
//
//	go test ./internal/exper -run TestGoldenSweepFingerprints -v -update-goldens
//
// and paste the logged hashes over the constants; the diff of the
// files is the result change.
const (
	goldenFigure2    = "168f2a205d1dab27677eecfda5084b5e979006cba8d7a7cfbd5b4f296f31fa42"
	goldenFigure3    = "3735da61b58bd3ff72264596a735f6657e72a43db8a46194314e14cd9f7463f6"
	goldenFigure4    = "8071eb9f0b91b5deffa709ce961437031617a50bd73e48c98de070078d2634d7"
	goldenTable2     = "eed4d4191e467e8b40e81748373f36b1eeb6dd1aac0749385cb304c43b0dbb1b"
	goldenAgeSweep   = "675816817a372c1fd9d0ada215d7c226269bb50b8e0cdcd8e697c717acf9d499"
	goldenGraphSweep = "cfbf78218b623e1d07913e845ef7fb59038b13db03d32f36076b87c40167a377"
	goldenScaleSweep = "386705d3b4929ccf637927e65eda37a1894f38229824e2aa30e866c32264a2ce"
	goldenFigure2All = "cac65f7e1bdfac056eb2fdfc7f9fa4c7ae3e288fbe22945472e3fe20242f90e5"
)

// -update-goldens rewrites the golden files from the workers=1 run
// instead of reading them, and logs each new file's hash.
var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/golden from the computed sweep output instead of asserting it")

// goldenPath is the committed output of the named sweep fixture.
func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".txt") }

// checkGolden compares got with the named golden file line by line
// and fails naming the first line that differs. With -update-goldens
// and rewrite set it first writes got as the file.
func checkGolden(t *testing.T, name string, got []byte, rewrite bool, run string) {
	t.Helper()
	path := goldenPath(name)
	if *updateGoldens && rewrite {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden%s = %q", name, hashOf(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		gl, wl := "(end of output)", "(end of file)"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s %s: line %d differs from %s (rerun with -update-goldens only for an intentional result change):\n  got  %s\n  want %s",
				name, run, i+1, path, gl, wl)
		}
	}
}

// goldenOpts is the shared reduced-scale profile of the fixtures. It
// must never change (the hashes pin its outputs).
func goldenOpts(workers int) Options {
	opts := Quick()
	opts.Workers = workers
	opts.Trials = 1
	opts.Procs = []int{2, 4}
	return opts
}

// fpFloat renders f with full round-trip precision: two runs whose
// floats differ by one ULP serialize differently.
func fpFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// dumpGARows serializes GA rows with every field at full precision.
func dumpGARows(buf *bytes.Buffer, rows []GARow) {
	for _, r := range rows {
		name := "avg"
		if r.Fn != nil {
			name = fmt.Sprintf("F%d", r.Fn.No)
		}
		fmt.Fprintf(buf, "%s p=%d load=%s", name, r.P, fpFloat(r.LoadBps))
		for _, v := range Variants() {
			fmt.Fprintf(buf, " %s=%s/f%d/m%d/w%s",
				v, fpFloat(r.Speedup[v]), r.OptFound[v], r.TargetMiss[v], fpFloat(r.Warp[v]))
		}
		fmt.Fprintf(buf, " bestgr=%s bestcomp=%s improve=%s\n",
			fpFloat(r.BestGR), fpFloat(r.BestComp), fpFloat(r.Improve))
	}
}

func fingerprintFigure2(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := Figure2(&buf, goldenOpts(workers), []*functions.Function{functions.F1, functions.F5})
	if err != nil {
		t.Fatalf("Figure2(workers=%d): %v", workers, err)
	}
	rows := append(append([]GARow{}, res.PerFunc...), res.Average...)
	if err := WriteGARowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	dumpGARows(&buf, rows)
	dumpGARows(&buf, res.BestCase)
	return buf.Bytes()
}

// fingerprintFigure2All runs Figure 2 over all eight functions at a
// shorter synchronous budget, so every objective (F2-F4 and F6-F8 have
// no other pin) and the GA kernel under each chromosome length is
// fingerprinted.
func fingerprintFigure2All(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := goldenOpts(workers)
	opts.SyncGens = 20
	res, err := Figure2(&buf, opts, functions.All())
	if err != nil {
		t.Fatalf("Figure2(all functions, workers=%d): %v", workers, err)
	}
	rows := append(append([]GARow{}, res.PerFunc...), res.Average...)
	if err := WriteGARowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	dumpGARows(&buf, rows)
	dumpGARows(&buf, res.BestCase)
	return buf.Bytes()
}

func fingerprintFigure3(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := Figure3(&buf, goldenOpts(workers))
	if err != nil {
		t.Fatalf("Figure3(workers=%d): %v", workers, err)
	}
	if err := WriteBayesRowsCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows := append(append([]BayesRow{}, res.Rows...), res.Average)
	for _, r := range rows {
		name := "avg"
		if r.Net != nil {
			name = r.Net.Name
		}
		fmt.Fprintf(&buf, "%s", name)
		for _, v := range Variants() {
			fmt.Fprintf(&buf, " %s=%s/r%s/i%s",
				v, fpFloat(r.Speedup[v]), fpFloat(r.Rollbacks[v]), fpFloat(r.Iters[v]))
		}
		fmt.Fprintf(&buf, " bestgr=%s bestcomp=%s improve=%s\n",
			fpFloat(r.BestGR), fpFloat(r.BestComp), fpFloat(r.Improve))
	}
	return buf.Bytes()
}

func fingerprintFigure4(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := Figure4(&buf, goldenOpts(workers), []*functions.Function{functions.F1, functions.F5})
	if err != nil {
		t.Fatalf("Figure4(workers=%d): %v", workers, err)
	}
	rows := append(append([]GARow{}, res.BestCase...), res.Average...)
	if err := WriteGARowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	dumpGARows(&buf, rows)
	return buf.Bytes()
}

func fingerprintTable2(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rows, err := Table2(&buf, goldenOpts(workers))
	if err != nil {
		t.Fatalf("Table2(workers=%d): %v", workers, err)
	}
	for _, r := range rows {
		fmt.Fprintf(&buf, "%s nodes=%d edges=%s values=%d cut=%d pipe=%d serial=%d ref=%s\n",
			r.Net.Name, r.Nodes, fpFloat(r.EdgesPer), r.Values,
			r.EdgeCut, r.PipeCut, int64(r.Serial), fpFloat(r.SerialRef))
	}
	return buf.Bytes()
}

func fingerprintAgeSweep(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := AgeSweep(&buf, goldenOpts(workers), functions.F1, 4, []float64{0, 2e6})
	if err != nil {
		t.Fatalf("AgeSweep(workers=%d): %v", workers, err)
	}
	dump := func(tag string, rows []AgeSweepRow) {
		for _, r := range rows {
			fmt.Fprintf(&buf, "%s age=%d load=%s speedup=%s blocked=%d warp=%s tol=%d unb=%d\n",
				tag, r.Age, fpFloat(r.LoadBps), fpFloat(r.Speedup),
				int64(r.Blocked), fpFloat(r.Warp), r.Tolerated, r.Unbounded)
		}
	}
	dump("fixed", res.Rows)
	dump("dyn", res.Dynamic)
	return buf.Bytes()
}

func fingerprintGraphSweep(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rows, err := GraphSweep(&buf, goldenOpts(workers), nil, 4)
	if err != nil {
		t.Fatalf("GraphSweep(workers=%d): %v", workers, err)
	}
	if err := WriteGraphRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&buf, "%s %s p=%d", r.Spec, r.Algo, r.P)
		for _, v := range Variants() {
			fmt.Fprintf(&buf, " %s=%s/s%s/c%d/d%s/w%s",
				v, fpFloat(r.Speedup[v]), fpFloat(r.Supersteps[v]), r.Converged[v],
				fpFloat(r.MaxDiff[v]), fpFloat(r.Warp[v]))
		}
		fmt.Fprintln(&buf)
	}
	return buf.Bytes()
}

func fingerprintScaleSweep(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	// The scale sweep fixture runs the full topology grid at reduced
	// node counts and budget; like goldenOpts itself, the shape must
	// never change (the hash pins its output).
	opts := goldenOpts(workers)
	opts.SyncGens = 40
	rows, err := ScaleSweep(&buf, opts, []int{16, 64}, nil)
	if err != nil {
		t.Fatalf("ScaleSweep(workers=%d): %v", workers, err)
	}
	if err := WriteScaleRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	dumpScaleRows(&buf, rows)
	return buf.Bytes()
}

// dumpScaleRows serializes scale rows with every field at full
// precision.
func dumpScaleRows(buf *bytes.Buffer, rows []ScaleRow) {
	for _, r := range rows {
		fmt.Fprintf(buf, "%d %s t=%d g=%s b=%s fb=%s a=%s m=%d d=%d nb=%d q=%d w=%s c=%d\n",
			r.Nodes, r.Topology, r.Trials, fpFloat(r.Gens), fpFloat(r.Best),
			fpFloat(r.FinalBest), fpFloat(r.Avg), r.Messages, r.Delivered,
			r.NetBytes, int64(r.QueueDelay), fpFloat(r.Warp), int64(r.Completion))
	}
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenSweepFingerprints asserts that every sweep reproduces its
// committed output byte for byte, at workers=1 and workers=8, and that
// each committed file still hashes to its pinned constant. This is the
// PR-level determinism gate: a hot-path optimization that changes any
// result byte fails here, naming the first line it moved.
func TestGoldenSweepFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps are long; skipped with -short")
	}
	sweeps := []struct {
		name  string
		want  string
		runFn func(*testing.T, int) []byte
	}{
		{"Figure2", goldenFigure2, fingerprintFigure2},
		{"Figure3", goldenFigure3, fingerprintFigure3},
		{"Figure4", goldenFigure4, fingerprintFigure4},
		{"Table2", goldenTable2, fingerprintTable2},
		{"AgeSweep", goldenAgeSweep, fingerprintAgeSweep},
		{"GraphSweep", goldenGraphSweep, fingerprintGraphSweep},
		{"ScaleSweep", goldenScaleSweep, fingerprintScaleSweep},
		{"Figure2All", goldenFigure2All, fingerprintFigure2All},
	}
	for _, sw := range sweeps {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			if !*updateGoldens {
				data, err := os.ReadFile(goldenPath(sw.name))
				if err != nil {
					t.Fatal(err)
				}
				if h := hashOf(data); h != sw.want {
					t.Fatalf("%s hashes to %s, want %s: the file and its constant must change together",
						goldenPath(sw.name), h, sw.want)
				}
			}
			for i, workers := range []int{1, 8} {
				checkGolden(t, sw.name, sw.runFn(t, workers), i == 0, fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

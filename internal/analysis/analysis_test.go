package analysis_test

import (
	"path/filepath"
	"testing"

	"nscc/internal/analysis"
	"nscc/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestWallclock(t *testing.T) {
	analysistest.Run(t, fixture("wallclock"), analysis.Wallclock)
}

func TestGlobalrand(t *testing.T) {
	analysistest.Run(t, fixture("globalrand"), analysis.Globalrand)
}

func TestRawconc(t *testing.T) {
	analysistest.Run(t, fixture("rawconc"), analysis.Rawconc)
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, fixture("maporder"), analysis.Maporder)
}

func TestStaleflow(t *testing.T) {
	analysistest.Run(t, fixture("staleflow"), analysis.Staleflow)
}

func TestCommute(t *testing.T) {
	analysistest.Run(t, fixture("commute"), analysis.Commute)
}

func TestDetguard(t *testing.T) {
	analysistest.Run(t, fixture("detguard"), analysis.Detguard)
}

func TestUnuseddirective(t *testing.T) {
	analysistest.Run(t, fixture("unuseddirective"), analysis.Unuseddirective)
}

// TestRawconcScope pins the packages the rawconc analyzer polices: the
// simulated-process layers are in scope; the coroutine substrate
// (internal/sim) and the host worker pool (internal/runner) are not.
func TestRawconcScope(t *testing.T) {
	in := []string{
		"nscc/internal/core", "nscc/internal/pvm", "nscc/internal/netsim",
		"nscc/internal/ga", "nscc/internal/ga/functions", "nscc/internal/bayes",
		"nscc/internal/faults", "nscc/internal/rollback",
		"nscc/internal/partition", "nscc/internal/exper",
		"nscc/internal/graph", "nscc/internal/cluster",
	}
	out := []string{
		"nscc/internal/sim", "nscc/internal/runner", "nscc/internal/trace",
		"nscc/internal/metrics", "nscc/internal/simrace", "nscc/cmd/nscc-ga",
		"nscc/internal/corelike", // prefix match must not catch cousins
	}
	for _, path := range in {
		if !analysis.Rawconc.Match(path) {
			t.Errorf("rawconc should apply to %s", path)
		}
	}
	for _, path := range out {
		if analysis.Rawconc.Match(path) {
			t.Errorf("rawconc should not apply to %s", path)
		}
	}
}

// TestAllAnalyzers pins the published suite: names are unique, every
// analyzer has docs and a Run body (the multichecker and the CI lint
// job both iterate All()).
func TestAllAnalyzers(t *testing.T) {
	all := analysis.All()
	if len(all) != 8 {
		t.Fatalf("expected 8 analyzers, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing name, doc, or run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

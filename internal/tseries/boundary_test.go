package tseries

import (
	"testing"

	"nscc/internal/sim"
)

// TestKindNames pins every Kind's export name, including the
// out-of-range fallback consumers may encounter on version skew.
func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{
		Counter: "counter", Gauge: "gauge", Quantile: "quantile", Kind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestWindowBoundaries drives samples at the exact edges of quantile
// windows: the last instant of window 0, the first instant of window 1,
// and time zero all land in the window their half-open interval says.
func TestWindowBoundaries(t *testing.T) {
	set := NewSet(100 * sim.Millisecond)
	q := set.Quantile("edges")
	w := 100 * sim.Millisecond
	q.Observe(0, 1)                // window 0, left edge
	q.Observe(sim.Time(w)-1, 2)    // window 0, last tick
	q.Observe(sim.Time(w), 10)     // window 1, left edge
	q.Observe(sim.Time(2*w)-1, 20) // window 1, last tick
	sum := q.Summary()
	if len(sum.Counts) != 2 {
		t.Fatalf("%d windows, want 2 (boundary sample leaked)", len(sum.Counts))
	}
	if sum.Counts[0] != 2 || sum.Counts[1] != 2 {
		t.Fatalf("counts %v, want [2 2]", sum.Counts)
	}
	if sum.Max[0] != 2 || sum.Max[1] != 20 {
		t.Fatalf("max %v, want [2 20]", sum.Max)
	}
	// The per-window histogram is also window-local: window 1's p90
	// reflects only its own samples.
	if sum.P90[1] < 10 {
		t.Fatalf("window 1 p90 %v includes window 0 samples", sum.P90[1])
	}
}

// TestMaxWindowsClamp: a sentinel-scale timestamp lands in the last
// representable window instead of allocating an unbounded slice.
func TestMaxWindowsClamp(t *testing.T) {
	set := NewSet(sim.Microsecond)
	c := set.Counter("clamped")
	c.Add(sim.Time(int64(1)<<62), 1)
	if n := c.Windows(); n != maxWindows {
		t.Fatalf("wild timestamp produced %d windows, want clamp at %d", n, maxWindows)
	}
	sum := c.Summary()
	if sum.Counts[maxWindows-1] != 1 {
		t.Fatal("clamped sample missing from the last window")
	}
}

// TestNegativeTimeWindowZero: negative virtual times (a defensive
// impossibility) fold into window 0 rather than panicking or
// allocating.
func TestNegativeTimeWindowZero(t *testing.T) {
	set := NewSet(0) // exercise the DefaultWindow fallback too
	g := set.Gauge("neg")
	g.Add(sim.Time(-5), 3)
	g.Add(0, 5)
	sum := g.Summary()
	if sum.WindowSecs != DefaultWindow.Seconds() {
		t.Fatalf("NewSet(0) window %vs, want DefaultWindow", sum.WindowSecs)
	}
	if len(sum.Counts) != 1 || sum.Counts[0] != 2 {
		t.Fatalf("counts %v, want both samples in window 0", sum.Counts)
	}
	if sum.Values[0] != 4 {
		t.Fatalf("window 0 mean %v, want 4", sum.Values[0])
	}
}

// TestSeriesAccessors covers the nil-receiver accessors and Name.
func TestSeriesAccessors(t *testing.T) {
	var nilSeries *Series
	if nilSeries.Name() != "" || nilSeries.Windows() != 0 {
		t.Error("nil series accessors not zero")
	}
	set := NewSet(sim.Millisecond)
	if s := set.Counter("named"); s.Name() != "named" {
		t.Errorf("Name() = %q", s.Name())
	}
}

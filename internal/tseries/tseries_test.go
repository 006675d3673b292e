package tseries

import (
	"math"
	"reflect"
	"testing"

	"nscc/internal/sim"
)

func TestCounterWindows(t *testing.T) {
	set := NewSet(sim.Second)
	c := set.Counter("net.drops")
	c.Add(0, 1)
	c.Add(sim.Time(500*sim.Millisecond), 2)
	c.Add(sim.Time(1500*sim.Millisecond), 4)
	sum := c.Summary()
	if sum.Kind != "counter" || sum.WindowSecs != 1 {
		t.Fatalf("summary header = %+v", sum)
	}
	if !reflect.DeepEqual(sum.Values, []float64{3, 4}) {
		t.Fatalf("values = %v, want [3 4]", sum.Values)
	}
	if !reflect.DeepEqual(sum.Counts, []int64{2, 1}) {
		t.Fatalf("counts = %v, want [2 1]", sum.Counts)
	}
}

func TestGaugeMeanAndGaps(t *testing.T) {
	set := NewSet(sim.Second)
	g := set.Gauge("pvm.queue_depth")
	g.Add(0, 2)
	g.Add(1, 4)
	// Window 1 has no samples; window 2 has one.
	g.Add(sim.Time(2*sim.Second), 7)
	sum := g.Summary()
	want := []float64{3, 0, 7}
	if !reflect.DeepEqual(sum.Values, want) {
		t.Fatalf("values = %v, want %v", sum.Values, want)
	}
	if sum.Counts[1] != 0 {
		t.Fatalf("gap window should have count 0, got %d", sum.Counts[1])
	}
}

func TestQuantileSeries(t *testing.T) {
	set := NewSet(sim.Second)
	q := set.Quantile("core.staleness")
	for i := int64(1); i <= 100; i++ {
		q.Observe(0, i)
	}
	sum := q.Summary()
	if sum.Max[0] != 100 {
		t.Fatalf("max = %v, want 100", sum.Max[0])
	}
	// p90 of 1..100 is rank 90 → bucket [64,127] → clamped to max 100.
	if sum.P90[0] != 100 {
		t.Fatalf("p90 = %v, want 100 (bucket edge clamped to max)", sum.P90[0])
	}
	if math.Abs(sum.Values[0]-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", sum.Values[0])
	}
}

func TestNegativeAndHugeTimesClamped(t *testing.T) {
	set := NewSet(sim.Second)
	c := set.Counter("x")
	c.Add(-5, 1) // negative → window 0
	if c.Windows() != 1 {
		t.Fatalf("negative time should land in window 0, got %d windows", c.Windows())
	}
	c.Add(sim.Forever, 1) // sentinel → clamped, no OOM
	if c.Windows() != maxWindows {
		t.Fatalf("sentinel time should clamp to maxWindows, got %d", c.Windows())
	}
}

func TestNilSafety(t *testing.T) {
	var set *Set
	s := set.Counter("x")
	if s != nil {
		t.Fatalf("nil set should hand out nil series")
	}
	s.Add(0, 1)
	s.Observe(0, 1)
	if s.Windows() != 0 || s.Name() != "" {
		t.Fatalf("nil series should be inert")
	}
	if got := set.Summaries(); got != nil {
		t.Fatalf("nil set summaries = %v, want nil", got)
	}
}

func TestSummariesDeterministic(t *testing.T) {
	set := NewSet(sim.Second)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		set.Counter(n).Add(0, 1)
	}
	first := set.Summaries()
	for i := 0; i < 10; i++ {
		again := set.Summaries()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("summaries not deterministic: %v vs %v", first, again)
		}
	}
	if first[0].Name != "alpha" || first[2].Name != "zeta" {
		t.Fatalf("not sorted: %v", []string{first[0].Name, first[1].Name, first[2].Name})
	}
}

// Package tseries records windowed, simulated-time series: the second
// observability layer on top of the end-of-run aggregates in
// internal/metrics. A Series buckets its samples into fixed-width
// windows of virtual time, so a run exports staleness, warp, queue
// depth, or progress as a time-resolved curve instead of a single
// number — the shape an adaptive age controller (ROADMAP item 5) can
// react to and the shape the delayed-consistency literature plots.
//
// Everything here is deterministic: samples are keyed by virtual time
// only, window layout is fixed at construction, and exports sort by
// series name. All methods are nil-receiver-safe so recording sites pay
// one predicted branch when telemetry is off, mirroring the nil-Tracer
// convention in internal/trace.
package tseries

import (
	"sort"

	"nscc/internal/metrics"
	"nscc/internal/sim"
)

// Kind distinguishes how a series folds samples into windows.
type Kind uint8

const (
	// Counter accumulates; a window's value is the sum of its samples
	// (events per window: retransmits, drops, busy time).
	Counter Kind = iota
	// Gauge samples a level; a window's value is the mean of its
	// samples (queue depth, warp, fitness).
	Gauge
	// Quantile keeps a full log-scale histogram per window, exporting
	// mean, max, and p90 (observed staleness).
	Quantile
)

// String returns the kind's export name.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Quantile:
		return "quantile"
	}
	return "unknown"
}

// maxWindows bounds a series' memory against a wild timestamp (a
// sentinel time would otherwise allocate an unbounded window slice).
// At the default 100ms width this covers ~29 hours of virtual time.
const maxWindows = 1 << 20

// window is one fixed-width bucket of virtual time.
type window struct {
	n    int64
	sum  float64
	max  float64
	hist *metrics.Histogram // Quantile series only
}

// Series is one named, windowed time series. The zero value is not
// usable; obtain one from a Set. A nil *Series ignores all samples.
type Series struct {
	name  string
	kind  Kind
	width sim.Duration
	wins  []window
}

// win returns the window covering virtual time at, growing the series
// as needed. Negative times land in window 0.
func (s *Series) win(at sim.Time) *window {
	idx := 0
	if at > 0 {
		idx = int(int64(at) / int64(s.width))
	}
	if idx >= maxWindows {
		idx = maxWindows - 1
	}
	for len(s.wins) <= idx {
		s.wins = append(s.wins, window{})
	}
	return &s.wins[idx]
}

// Add folds one sample into the window covering at. For counters the
// window accumulates v; for gauges it tracks the running mean and max.
// No-op on a nil series.
func (s *Series) Add(at sim.Time, v float64) {
	if s == nil {
		return
	}
	w := s.win(at)
	w.n++
	w.sum += v
	if w.n == 1 || v > w.max {
		w.max = v
	}
}

// Observe folds one integer sample into the window covering at,
// recording the full distribution for Quantile series. No-op on a nil
// series.
func (s *Series) Observe(at sim.Time, v int64) {
	if s == nil {
		return
	}
	w := s.win(at)
	w.n++
	w.sum += float64(v)
	if w.n == 1 || float64(v) > w.max {
		w.max = float64(v)
	}
	if s.kind == Quantile {
		if w.hist == nil {
			w.hist = &metrics.Histogram{}
		}
		w.hist.Observe(v)
	}
}

// Name returns the series name.
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Windows returns the number of windows the series spans (0 when empty
// or nil).
func (s *Series) Windows() int {
	if s == nil {
		return 0
	}
	return len(s.wins)
}

// Summary exports the series as the JSON-friendly metrics block.
// Windows with no samples export value 0 (and count 0, so a consumer
// can tell "no data" from "observed zero").
func (s *Series) Summary() metrics.SeriesSummary {
	if s == nil {
		return metrics.SeriesSummary{}
	}
	out := metrics.SeriesSummary{
		Name:       s.name,
		Kind:       s.kind.String(),
		WindowSecs: s.width.Seconds(),
		Counts:     make([]int64, len(s.wins)),
		Values:     make([]float64, len(s.wins)),
	}
	if s.kind == Quantile {
		out.Max = make([]float64, len(s.wins))
		out.P90 = make([]float64, len(s.wins))
	}
	for i := range s.wins {
		w := &s.wins[i]
		out.Counts[i] = w.n
		if w.n == 0 {
			continue
		}
		switch s.kind {
		case Counter:
			out.Values[i] = w.sum
		default:
			out.Values[i] = w.sum / float64(w.n)
		}
		if s.kind == Quantile {
			out.Max[i] = w.max
			if w.hist != nil {
				out.P90[i] = float64(w.hist.Quantile(0.9))
			}
		}
	}
	return out
}

// Set is a registry of series sharing one window width. The zero value
// is not usable; use NewSet. A nil *Set hands out nil series, so a
// single nil check at wiring time turns the whole layer off.
type Set struct {
	width  sim.Duration
	series map[string]*Series
}

// DefaultWindow is the window width runs use unless configured
// otherwise: 100 virtual milliseconds, matching the runners' warp
// meter windows.
const DefaultWindow = 100 * sim.Millisecond

// NewSet returns an empty registry with the given window width
// (DefaultWindow when width <= 0).
func NewSet(width sim.Duration) *Set {
	if width <= 0 {
		width = DefaultWindow
	}
	return &Set{width: width, series: map[string]*Series{}}
}

// get returns the named series, creating it with the given kind on
// first use. An existing series keeps its original kind.
func (st *Set) get(name string, kind Kind) *Series {
	if st == nil {
		return nil
	}
	if s, ok := st.series[name]; ok {
		return s
	}
	s := &Series{name: name, kind: kind, width: st.width}
	st.series[name] = s
	return s
}

// Counter returns the named counter series, creating it if needed.
func (st *Set) Counter(name string) *Series { return st.get(name, Counter) }

// Gauge returns the named gauge series, creating it if needed.
func (st *Set) Gauge(name string) *Series { return st.get(name, Gauge) }

// Quantile returns the named quantile series, creating it if needed.
func (st *Set) Quantile(name string) *Series { return st.get(name, Quantile) }

// names returns the set's series names in sorted order.
func (st *Set) names() []string {
	names := make([]string, 0, len(st.series))
	//nscc:maporder -- sort below launders the iteration order
	for name := range st.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Summaries exports every series, sorted by name so the output is
// deterministic. Nil and empty sets export nil.
func (st *Set) Summaries() []metrics.SeriesSummary {
	if st == nil || len(st.series) == 0 {
		return nil
	}
	out := make([]metrics.SeriesSummary, 0, len(st.series))
	for _, name := range st.names() {
		out = append(out, st.series[name].Summary())
	}
	return out
}

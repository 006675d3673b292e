package metrics

import "sort"

// TaskTelemetry is one task's time and traffic accounting for a run:
// the message-layer counters (messages and bytes in each direction, the
// receive-overhead CPU the unpacking charged, send-window stalls)
// merged with the coherence-layer counters (Global_Read calls, blocks,
// blocked time). Durations are exported as float seconds so the JSON is
// directly plottable.
type TaskTelemetry struct {
	Task int    `json:"task"`
	Name string `json:"name"`

	MsgsSent    int64   `json:"msgs_sent"`
	MsgsRecv    int64   `json:"msgs_recv"`
	BytesSent   int64   `json:"bytes_sent"`
	BytesRecv   int64   `json:"bytes_recv"`
	RecvCPUSecs float64 `json:"recv_cpu_secs"`
	SendStalls  int64   `json:"send_stalls"`

	GlobalReads  int64   `json:"global_reads"`
	BlockedReads int64   `json:"blocked_reads"`
	BlockedSecs  float64 `json:"blocked_secs"`

	// Reliable-transport counters (zero unless pvm.Config.Reliable).
	Retransmits    int64 `json:"retransmits,omitempty"`
	DupsSuppressed int64 `json:"dups_suppressed,omitempty"`
	RetxAbandoned  int64 `json:"retx_abandoned,omitempty"`
	// ReadTimeouts counts Global_Reads that hit their deadline and
	// returned the cached value instead of a fresh one.
	ReadTimeouts int64 `json:"read_timeouts,omitempty"`
}

// RaceTelemetry is the simulated-time race classifier's verdict on a
// run: every cross-process read that returned a value is exactly one of
// synchronized (no concurrent unobserved write existed — the read could
// not have raced), tolerated-stale (a race, but within the Global_Read
// age bound — the paper's non-strict coherence working as designed), or
// unbounded (a race with no staleness contract in force: an async read,
// or a timed-out Global_Read that exceeded its bound).
type RaceTelemetry struct {
	Writes         int64 `json:"writes"`
	Reads          int64 `json:"reads"` // value-bearing reads classified
	Synchronized   int64 `json:"synchronized"`
	ToleratedStale int64 `json:"tolerated_stale"`
	Unbounded      int64 `json:"unbounded"`
	// NoValue counts reads that returned no value at all (nothing had
	// arrived and the contract demanded nothing) — no race to classify.
	NoValue int64 `json:"no_value,omitempty"`
	// TimedOut counts degraded Global_Reads (also classified above).
	TimedOut int64 `json:"timed_out,omitempty"`
	// MaxLag is the largest reader-observed staleness (current iteration
	// − returned iteration) over racy bounded reads.
	MaxLag int64 `json:"max_lag,omitempty"`
}

// Races reports the total racy reads (tolerated + unbounded).
func (r *RaceTelemetry) Races() int64 { return r.ToleratedStale + r.Unbounded }

// RaceReportSchema versions the -simrace-out report consumed by
// nscc-lint -simrace-report.
const RaceReportSchema = "nscc-simrace-report/v1"

// LocationRace is one DSM location's slice of the race classification:
// the same verdict counters as RaceTelemetry, attributed to the named
// location. The static staleflow analyzer discharges tolerated flows
// per location name (//nscc:tolerates-stale loc=<name>), and the
// reconciliation cross-check joins these dynamic rows against those
// annotations.
type LocationRace struct {
	ID             int    `json:"id"`
	Name           string `json:"name"`
	Writes         int64  `json:"writes"`
	Reads          int64  `json:"reads"`
	Synchronized   int64  `json:"synchronized"`
	ToleratedStale int64  `json:"tolerated_stale"`
	Unbounded      int64  `json:"unbounded"`
	NoValue        int64  `json:"no_value,omitempty"`
	MaxLag         int64  `json:"max_lag,omitempty"`
}

// RaceReport is the per-run (or per-sweep, after merging) simrace
// verdict in its serialized form.
type RaceReport struct {
	Schema    string         `json:"schema"`
	Totals    RaceTelemetry  `json:"totals"`
	Locations []LocationRace `json:"locations"`
}

// MergeLocationRaces folds src's rows into dst (matching by location
// id and name — distinct sweep cells re-register the same topology)
// and returns dst sorted by id then name. Counters add; MaxLag takes
// the maximum.
func MergeLocationRaces(dst, src []LocationRace) []LocationRace {
	type key struct {
		id   int
		name string
	}
	idx := map[key]int{}
	for i, r := range dst {
		idx[key{r.ID, r.Name}] = i
	}
	for _, r := range src {
		k := key{r.ID, r.Name}
		i, ok := idx[k]
		if !ok {
			idx[k] = len(dst)
			dst = append(dst, r)
			continue
		}
		d := &dst[i]
		d.Writes += r.Writes
		d.Reads += r.Reads
		d.Synchronized += r.Synchronized
		d.ToleratedStale += r.ToleratedStale
		d.Unbounded += r.Unbounded
		d.NoValue += r.NoValue
		if r.MaxLag > d.MaxLag {
			d.MaxLag = r.MaxLag
		}
	}
	sort.Slice(dst, func(i, j int) bool {
		if dst[i].ID != dst[j].ID {
			return dst[i].ID < dst[j].ID
		}
		return dst[i].Name < dst[j].Name
	})
	return dst
}

// RaceReport assembles the run's serializable race report (the
// -simrace-out artifact nscc-lint -simrace-report consumes), or nil if
// the run was executed without race checking.
func (t *Telemetry) RaceReport() *RaceReport {
	if t.Races == nil {
		return nil
	}
	return &RaceReport{Schema: RaceReportSchema, Totals: *t.Races, Locations: t.RaceLocations}
}

// TotalsFromLocations derives sweep-level totals from merged location
// rows: counters sum, MaxLag takes the maximum. (TimedOut is not
// attributed per location and stays zero.)
func TotalsFromLocations(locs []LocationRace) RaceTelemetry {
	var t RaceTelemetry
	for _, l := range locs {
		t.Writes += l.Writes
		t.Reads += l.Reads
		t.Synchronized += l.Synchronized
		t.ToleratedStale += l.ToleratedStale
		t.Unbounded += l.Unbounded
		t.NoValue += l.NoValue
		if l.MaxLag > t.MaxLag {
			t.MaxLag = l.MaxLag
		}
	}
	return t
}

// CacheTelemetry is the checkpoint cache's accounting over a sweep (or
// a whole run, when aggregated across sweeps): cells replayed from the
// journal (Hits), cells actually computed (Misses), records discarded
// because the journal's configuration fingerprint no longer matched
// (Invalidated), and torn tail records truncated away during crash
// recovery (TornRecords — at most one per journal per crash).
type CacheTelemetry struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Invalidated int64 `json:"invalidated,omitempty"`
	TornRecords int64 `json:"torn_records,omitempty"`
}

// Add accumulates another journal's counters.
func (c *CacheTelemetry) Add(o CacheTelemetry) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Invalidated += o.Invalidated
	c.TornRecords += o.TornRecords
}

// NetTelemetry is the interconnect's aggregate accounting.
type NetTelemetry struct {
	Frames         int64   `json:"frames"`
	Delivered      int64   `json:"delivered"`
	Dropped        int64   `json:"dropped"`
	Bytes          int64   `json:"bytes"`
	BusySecs       float64 `json:"busy_secs"`
	QueueDelaySecs float64 `json:"queue_delay_secs"`
	MaxQueueLen    int     `json:"max_queue_len"`
	Utilization    float64 `json:"utilization"`
}

// Telemetry is the structured, machine-readable observability block a
// run result carries: per-task accounting, network aggregates, the
// observed-staleness histogram of every Global_Read (the empirical
// picture of the age bound), and the warp summary.
type Telemetry struct {
	Variant        string  `json:"variant"`
	Age            int64   `json:"age"`
	CompletionSecs float64 `json:"completion_secs"`

	Tasks     []TaskTelemetry  `json:"tasks"`
	Net       NetTelemetry     `json:"net"`
	Staleness HistogramSummary `json:"staleness"`

	WarpMean float64 `json:"warp_mean"`
	WarpMax  float64 `json:"warp_max"`

	// StalenessViolations counts Global_Reads that could not meet the
	// staleness bound within their timeout and degraded to the cached
	// value (the sum of the per-task ReadTimeouts).
	StalenessViolations int64 `json:"staleness_violations,omitempty"`

	// Races is the simulated-time race classifier's summary; nil unless
	// the run was executed with race checking on.
	Races *RaceTelemetry `json:"races,omitempty"`

	// RaceLocations is the per-location breakdown of Races (one row per
	// registered DSM location); empty unless race checking was on.
	RaceLocations []LocationRace `json:"race_locations,omitempty"`

	// Series carries the windowed simulated-time series recorded during
	// the run (internal/tseries summaries, sorted by name); empty unless
	// the run was configured with a series set.
	Series []SeriesSummary `json:"series,omitempty"`
}

// SeriesSummary is the JSON export of one windowed simulated-time
// series (produced by internal/tseries, defined here so Telemetry does
// not depend on the recording package). Windows are contiguous from
// simulated time 0; window i covers [i*WindowSecs, (i+1)*WindowSecs).
// The per-window Values slice holds the window sum for counters and the
// window mean for gauges and quantile series; Max and P90 are populated
// for quantile series only.
type SeriesSummary struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"` // "counter", "gauge", "quantile"
	WindowSecs float64 `json:"window_secs"`

	Counts []int64   `json:"counts,omitempty"` // per-window sample count
	Values []float64 `json:"values"`
	Max    []float64 `json:"max,omitempty"`
	P90    []float64 `json:"p90,omitempty"`
}

// TotalBlockedSecs sums the per-task Global_Read blocked time.
func (t *Telemetry) TotalBlockedSecs() float64 {
	s := 0.0
	for i := range t.Tasks {
		s += t.Tasks[i].BlockedSecs
	}
	return s
}

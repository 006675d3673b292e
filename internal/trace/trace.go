// Package trace is the repository's unified event/span recorder: a
// low-overhead, optional observability layer every other layer reports
// into. The simulation engine emits process start/stop/block/wake and
// event-fire records, the network models emit queue-depth and
// utilization counters, the message layer emits send instants and
// per-message delivery spans, the coherence primitive emits Global_Read
// spans (with the observed staleness of each read), and the
// applications emit per-iteration spans and rollback/antimessage
// instants. One Tracer serves a whole run; a nil tracer costs a single
// predicted branch per potential record and zero allocations.
//
// The package is deliberately dependency-free (timestamps are int64
// virtual nanoseconds, not sim.Time) so every layer — including package
// sim itself — can import it without cycles.
//
// Recorded traces export in the Chrome trace_event JSON format (one
// event per line inside a JSON array), which loads directly in Perfetto
// (ui.perfetto.dev) and chrome://tracing.
package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Layer pids: each architectural layer renders as one "process" row
// group in the trace viewer, with simulated tasks/processes as its
// threads.
const (
	PidSim  = 1 // simulation engine: process lifecycle, event firings
	PidNet  = 2 // interconnect: queue depth, utilization, drops
	PidPVM  = 3 // message layer: sends and per-message delivery spans
	PidCore = 4 // coherence: Global_Read spans, update arrivals
	PidApp  = 5 // applications: GA generations, sampler iterations
	// PidFaults is the fault-injection layer: scheduled drop/delay/
	// duplicate instants and crash/partition window spans.
	PidFaults = 6
	// PidRace is the simulated-time race classifier: one instant per
	// cross-process read that raced a concurrent write, named by its
	// class (tolerated_stale or unbounded_race).
	PidRace = 7
)

// PidName returns the layer name a pid renders under.
func PidName(pid int) string {
	switch pid {
	case PidSim:
		return "sim"
	case PidNet:
		return "net"
	case PidPVM:
		return "pvm"
	case PidCore:
		return "core"
	case PidApp:
		return "app"
	case PidFaults:
		return "faults"
	case PidRace:
		return "simrace"
	default:
		return fmt.Sprintf("pid%d", pid)
	}
}

// Event phases, matching the Chrome trace_event "ph" field.
const (
	PhaseSpan    = byte('X') // complete span: TS..TS+Dur
	PhaseInstant = byte('i') // instantaneous record at TS
	PhaseCounter = byte('C') // sampled counter value(s) at TS
)

// Event is one trace record. Timestamps and durations are virtual
// nanoseconds. The two fixed key/value slots carry numeric arguments
// without allocating; unused slots have an empty key.
type Event struct {
	TS   int64  // start time (virtual ns)
	Dur  int64  // duration (virtual ns); meaningful for PhaseSpan
	Ph   byte   // PhaseSpan, PhaseInstant, or PhaseCounter
	Pid  int    // layer (PidSim..PidApp)
	Tid  int    // task / process / node id within the layer
	Cat  string // category ("sim", "net", "pvm", "core", "ga", "bayes")
	Name string // record name ("msg", "global_read", "gen", ...)
	K1   string // first argument key ("" = absent)
	V1   int64
	K2   string // second argument key ("" = absent)
	V2   int64
}

// End returns the span's end time (TS for non-spans).
func (e Event) End() int64 { return e.TS + e.Dur }

// Tracer receives trace records. Implementations must not retain
// pointers into the caller; Event is self-contained and passed by
// value. All layers guard emissions with a nil check, so a nil Tracer
// is the zero-overhead default.
type Tracer interface {
	Emit(Event)
}

// Recorder is the standard Tracer: an in-memory append-only event log
// with Chrome trace_event export. The simulation is single-threaded by
// construction (only the goroutine holding the engine, Run's caller or
// one process, runs at a time), so the Recorder needs no locking.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit appends one event.
func (r *Recorder) Emit(ev Event) { r.events = append(r.events, ev) }

// Events returns the recorded events in emission order. The slice is
// the recorder's own backing store; do not mutate it.
func (r *Recorder) Events() []Event { return r.events }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset discards all recorded events, keeping the backing capacity.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// CountBy returns how many recorded events satisfy pred.
func (r *Recorder) CountBy(pred func(*Event) bool) int {
	n := 0
	for i := range r.events {
		if pred(&r.events[i]) {
			n++
		}
	}
	return n
}

// WriteChromeTrace writes the recorded events as a Chrome
// trace_event-format JSON array, one event per line (JSONL inside the
// array), loadable in Perfetto and chrome://tracing. Timestamps are
// exported in microseconds (the format's unit) at nanosecond precision.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	// Metadata: name the layer pids so the viewer groups rows sensibly.
	pids := map[int]bool{}
	for i := range r.events {
		pids[r.events[i].Pid] = true
	}
	for pid := 0; pid <= 64; pid++ { // deterministic order
		if !pids[pid] {
			continue
		}
		fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%q}},\n",
			pid, PidName(pid))
	}
	for i := range r.events {
		ev := &r.events[i]
		fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,\"ph\":%q,\"ts\":%.3f,\"pid\":%d,\"tid\":%d",
			ev.Name, ev.Cat, string(ev.Ph), float64(ev.TS)/1e3, ev.Pid, ev.Tid)
		if ev.Ph == PhaseSpan {
			fmt.Fprintf(bw, ",\"dur\":%.3f", float64(ev.Dur)/1e3)
		}
		if ev.Ph == PhaseInstant {
			// Thread-scoped instant (renders as a tick on the row).
			bw.WriteString(",\"s\":\"t\"")
		}
		if ev.K1 != "" || ev.K2 != "" {
			bw.WriteString(",\"args\":{")
			if ev.K1 != "" {
				fmt.Fprintf(bw, "%q:%d", ev.K1, ev.V1)
			}
			if ev.K2 != "" {
				if ev.K1 != "" {
					bw.WriteString(",")
				}
				fmt.Fprintf(bw, "%q:%d", ev.K2, ev.V2)
			}
			bw.WriteString("}")
		}
		if i < len(r.events)-1 {
			bw.WriteString("},\n")
		} else {
			bw.WriteString("}\n")
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

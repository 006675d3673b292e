package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if r.Len() != 0 {
		t.Fatalf("new recorder not empty")
	}
	r.Emit(Event{TS: 10, Dur: 5, Ph: PhaseSpan, Pid: PidPVM, Tid: 1, Cat: "pvm", Name: "msg", K1: "src", V1: 0})
	r.Emit(Event{TS: 20, Ph: PhaseInstant, Pid: PidSim, Tid: 2, Cat: "sim", Name: "block"})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Events()[0].End(); got != 15 {
		t.Fatalf("End = %d, want 15", got)
	}
	if n := r.CountBy(func(e *Event) bool { return e.Pid == PidSim }); n != 1 {
		t.Fatalf("CountBy = %d, want 1", n)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Reset left %d events", r.Len())
	}
}

// TestWriteChromeTraceValidJSON asserts the export is a well-formed
// JSON array whose records carry the Chrome trace_event fields.
func TestWriteChromeTraceValidJSON(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{TS: 1500, Dur: 2500, Ph: PhaseSpan, Pid: PidCore, Tid: 3, Cat: "core", Name: "global_read", K1: "loc", V1: 7, K2: "stale", V2: 2})
	r.Emit(Event{TS: 4000, Ph: PhaseInstant, Pid: PidApp, Tid: 0, Cat: "ga", Name: "done"})
	r.Emit(Event{TS: 5000, Ph: PhaseCounter, Pid: PidNet, Tid: 0, Cat: "net", Name: "bus", K1: "queued", V1: 4})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	// Metadata (3 pids) + 3 events.
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	var span map[string]interface{}
	for _, rec := range recs {
		if rec["name"] == "global_read" {
			span = rec
		}
	}
	if span == nil {
		t.Fatalf("global_read span missing")
	}
	if span["ph"] != "X" {
		t.Fatalf("ph = %v, want X", span["ph"])
	}
	if ts := span["ts"].(float64); ts != 1.5 { // 1500 ns = 1.5 us
		t.Fatalf("ts = %v us, want 1.5", ts)
	}
	if dur := span["dur"].(float64); dur != 2.5 {
		t.Fatalf("dur = %v us, want 2.5", dur)
	}
	args := span["args"].(map[string]interface{})
	if args["loc"].(float64) != 7 || args["stale"].(float64) != 2 {
		t.Fatalf("args = %v", args)
	}
	if !strings.Contains(buf.String(), `"name":"core"`) {
		t.Fatalf("missing pid metadata:\n%s", buf.String())
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []interface{}
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("empty export invalid: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty recorder exported %d records", len(recs))
	}
}

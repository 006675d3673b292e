package exper

import (
	"bytes"
	"encoding/json"
	"testing"

	"nscc/internal/trace"
)

// TestTraceRun runs the instrumented demo at a reduced scale and checks
// the acceptance properties: spans from at least three layers, a valid
// Perfetto-loadable Chrome trace export, populated telemetry for both
// applications, and an observed-staleness histogram bounded by the
// demo's age setting.
func TestTraceRun(t *testing.T) {
	opts := Quick()
	opts.SyncGens = 40
	opts.Precision = 0.05

	rec := trace.NewRecorder()
	var out bytes.Buffer
	tel, err := TraceRun(&out, opts, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("demo recorded no events")
	}

	pids := map[int]bool{}
	for _, e := range rec.Events() {
		if e.Ph == trace.PhaseSpan {
			pids[e.Pid] = true
		}
	}
	if len(pids) < 3 {
		t.Fatalf("spans from %d layers, want >= 3 (got %v)", len(pids), pids)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var records []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(records) <= rec.Len() {
		t.Fatalf("export has %d records, want > %d (events + pid metadata)", len(records), rec.Len())
	}

	if tel.GA == nil || tel.Bayes == nil {
		t.Fatalf("telemetry missing an application block: %+v", tel)
	}
	if len(tel.GA.Tasks) != 4 {
		t.Fatalf("GA telemetry has %d tasks, want 4", len(tel.GA.Tasks))
	}
	for _, task := range tel.GA.Tasks {
		if task.MsgsSent == 0 || task.BytesSent == 0 || task.GlobalReads == 0 {
			t.Fatalf("GA task telemetry not populated: %+v", task)
		}
	}
	if tel.GA.Staleness.N == 0 {
		t.Fatal("GA staleness histogram is empty")
	}
	if tel.GA.Staleness.Max > traceAge {
		t.Fatalf("GA observed staleness %d exceeds the age bound %d", tel.GA.Staleness.Max, traceAge)
	}
	if tel.Bayes.Staleness.Max > traceAge {
		t.Fatalf("bayes observed staleness %d exceeds the age bound %d", tel.Bayes.Staleness.Max, traceAge)
	}
	if tel.GA.Net.Frames == 0 || tel.GA.Net.Utilization <= 0 {
		t.Fatalf("GA net telemetry not populated: %+v", tel.GA.Net)
	}
	if tel.GA.TotalBlockedSecs() <= 0 {
		t.Fatal("Global_Read demo recorded no blocked time")
	}

	var js bytes.Buffer
	enc := json.NewEncoder(&js)
	if err := enc.Encode(tel); err != nil {
		t.Fatalf("telemetry does not marshal: %v", err)
	}
}

// TestTraceRunHonorsUseSwitch checks that the demo's GA runs on the
// network the GA sweeps run on: under UseSwitch its sync reference and
// traced run take the crossbar switch, so the GA telemetry differs from
// the bus run's, while the Bayes run stays on the bus and keeps its
// telemetry byte for byte.
func TestTraceRunHonorsUseSwitch(t *testing.T) {
	opts := Quick()
	opts.SyncGens = 40
	opts.Precision = 0.05
	run := func(useSwitch bool) (ga, bayes []byte) {
		t.Helper()
		o := opts
		o.UseSwitch = useSwitch
		tel, err := TraceRun(&bytes.Buffer{}, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		ga, err = json.Marshal(tel.GA)
		if err != nil {
			t.Fatal(err)
		}
		bayes, err = json.Marshal(tel.Bayes)
		if err != nil {
			t.Fatal(err)
		}
		return ga, bayes
	}
	busGA, busBayes := run(false)
	swGA, swBayes := run(true)
	if bytes.Equal(busGA, swGA) {
		t.Error("UseSwitch left the demo's GA telemetry unchanged: its GA ran on the bus")
	}
	if !bytes.Equal(busBayes, swBayes) {
		t.Error("UseSwitch changed the demo's Bayes telemetry: Bayes runs stay on the bus")
	}
}

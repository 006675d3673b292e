package exper

import (
	"fmt"
	"io"

	"nscc/internal/bayes"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/metrics"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// TraceTelemetry is the machine-readable result of TraceRun: one
// telemetry block per instrumented application.
type TraceTelemetry struct {
	GA    *metrics.Telemetry `json:"ga"`
	Bayes *metrics.Telemetry `json:"bayes"`
}

// traceAge is the staleness bound of the instrumented demo runs — the
// middle of the paper's sweep.
const traceAge = 10

// TraceRun executes the instrumented demo behind nscc-bench's
// -trace-out/-metrics-out flags. Tracing a whole experiment suite would
// produce gigabytes, so the demo is one representative run per
// application instead: a Global_Read island GA (F1, P=4, age 10) with
// the tracer attached — its event stream spans every layer (sim process
// lifecycle, bus counters, pvm message spans, core Global_Read spans,
// app generation spans) — plus a parallel logic-sampling run (first
// Table 2 network, P=2, age 10) contributing telemetry only. The GA
// run first repeats the synchronous reference untraced to derive the
// convergence target, exactly as the experiment protocol does.
func TraceRun(w io.Writer, opts Options, tr trace.Tracer) (*TraceTelemetry, error) {
	fn := functions.F1
	p := 4
	base := opts.gaConfig(fn, p, opts.Seed, 0)
	syncCfg := base
	syncCfg.Mode = core.Sync
	syncRes, err := ga.RunIsland(syncCfg)
	if err != nil {
		return nil, fmt.Errorf("trace demo sync reference: %w", err)
	}

	grCfg := base
	grCfg.Mode = core.NonStrict
	grCfg.Age = traceAge
	grCfg.Target = syncRes.Avg
	grCfg.Tracer = tr
	grCfg.Series = tseries.NewSet(tseries.DefaultWindow)
	grRes, err := ga.RunIsland(grCfg)
	if err != nil {
		return nil, fmt.Errorf("trace demo gr(%d): %w", traceAge, err)
	}

	bn := bayes.Table2Networks()[0]
	bcfg := opts.bayesConfig(bn, bayes.DefaultQuery(bn), Variant{Mode: core.NonStrict, Age: traceAge}, opts.Seed)
	bcfg.Series = tseries.NewSet(tseries.DefaultWindow)
	bres, err := bayes.RunParallel(bcfg)
	if err != nil {
		return nil, fmt.Errorf("trace demo bayes: %w", err)
	}

	fmt.Fprintf(w, "trace demo: GA F%d P=%d gr(%d): completion %.3fs (sync ref %.3fs), blocked reads %d\n",
		fn.No, p, traceAge, grRes.Completion.Seconds(), syncRes.Completion.Seconds(), grRes.Blocked)
	fmt.Fprintf(w, "trace demo: bayes %s P=2 gr(%d): completion %.3fs, rollbacks %d\n",
		bn.Name, traceAge, bres.Completion.Seconds(), bres.Rollbacks)
	return &TraceTelemetry{GA: grRes.Telemetry, Bayes: bres.Telemetry}, nil
}

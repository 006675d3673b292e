package exper

import (
	"encoding/csv"
	"fmt"
	"io"

	"nscc/internal/metrics"
)

// WriteGARowsCSV emits GA experiment rows as CSV (one line per
// (bench, P, load, variant) combination) for external plotting.
func WriteGARowsCSV(w io.Writer, rows []GARow) error {
	cw := csv.NewWriter(w)
	header := []string{"bench", "procs", "load_bps", "variant", "speedup",
		"optimum_found", "target_miss", "warp"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		name := "average"
		if r.Fn != nil {
			name = fmt.Sprintf("F%d", r.Fn.No)
		}
		for _, v := range Variants() {
			rec := []string{
				name,
				fmt.Sprintf("%d", r.P),
				fmt.Sprintf("%.0f", r.LoadBps),
				v.String(),
				fmt.Sprintf("%.4f", r.Speedup[v]),
				fmt.Sprintf("%d", r.OptFound[v]),
				fmt.Sprintf("%d", r.TargetMiss[v]),
				fmt.Sprintf("%.3f", r.Warp[v]),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesCSV emits windowed time-series summaries as long-format
// CSV (one line per series window) for external plotting: the window's
// simulated start time in seconds, the sample count, and the kind's
// value (counter sum, gauge/quantile mean) plus the quantile columns
// when present.
func WriteSeriesCSV(w io.Writer, series []metrics.SeriesSummary) error {
	cw := csv.NewWriter(w)
	header := []string{"series", "kind", "window_s", "count", "value", "max", "p90"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range series {
		for i, v := range s.Values {
			var count int64
			if i < len(s.Counts) {
				count = s.Counts[i]
			}
			rec := []string{
				s.Name,
				s.Kind,
				fmt.Sprintf("%.3f", float64(i)*s.WindowSecs),
				fmt.Sprintf("%d", count),
				fmt.Sprintf("%.6g", v),
				"",
				"",
			}
			if i < len(s.Max) {
				rec[5] = fmt.Sprintf("%.6g", s.Max[i])
			}
			if i < len(s.P90) {
				rec[6] = fmt.Sprintf("%.6g", s.P90[i])
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBayesRowsCSV emits Figure 3 rows as CSV.
func WriteBayesRowsCSV(w io.Writer, res Figure3Result) error {
	cw := csv.NewWriter(w)
	header := []string{"network", "variant", "speedup", "rollbacks", "iters"}
	if err := cw.Write(header); err != nil {
		return err
	}
	rows := append([]BayesRow{}, res.Rows...)
	rows = append(rows, res.Average)
	for _, r := range rows {
		name := "average"
		if r.Net != nil {
			name = r.Net.Name
		}
		for _, v := range Variants() {
			rec := []string{
				name,
				v.String(),
				fmt.Sprintf("%.4f", r.Speedup[v]),
				fmt.Sprintf("%.1f", r.Rollbacks[v]),
				fmt.Sprintf("%.1f", r.Iters[v]),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

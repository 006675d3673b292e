// Package metrics implements the paper's measurement machinery: the
// warp network-load metric of Heddaya–Park–Sinha (measured above PVM for
// all messages, §4.3), the 90 % confidence half-width the inference
// programs stop on, log-scale histograms, and the telemetry blocks a
// run exports.
package metrics

import (
	"math"

	"nscc/internal/intmap"
	"nscc/internal/sim"
)

// Warp of a pair of consecutive messages from the same sender: the ratio
// of the difference in their arrival times to the difference in their
// sending times. Warp 1 means stable network load; warp >> 1 means load
// is increasing.

// WarpMeter accumulates warp samples per (receiver, sender) pair: their
// mean and max over the whole run and, with a window, their mean over
// each consecutive window of virtual time, so the onset of network
// instability is visible as a time series rather than a single mean: a
// stable network hovers at 1 in every window; a flooding sender drives
// later windows' warp upward. One pairing feeds both views.
type WarpMeter struct {
	last   intmap.Map[[2]sim.Time] // streamKey(dst, src) → (sentAt, arrivedAt) of the previous message
	acc    Accumulator
	window sim.Duration  // window width; 0 keeps no windows
	accs   []Accumulator // accs[i] holds the samples arriving in window i
}

// NewWarpMeter returns an empty meter. A positive window also keeps the
// per-window means Windows reports; 0 keeps none, and a negative window
// panics.
func NewWarpMeter(window sim.Duration) *WarpMeter {
	if window < 0 {
		panic("metrics: warp window must not be negative")
	}
	return &WarpMeter{window: window}
}

// streamKey packs a (receiver, sender) pair of task ids, each below
// 2^32, into one table key.
func streamKey(dst, src int) int64 { return int64(dst)<<32 | int64(uint32(src)) }

// Observe records one message arrival. Call it for every message (e.g.
// from pvm.Machine.ArrivalHook). It pairs the arrival with the previous
// message of the same (receiver, sender) stream, and a pair with a
// positive send spacing yields one sample, which lands in the whole-run
// statistics and in the window containing arrivedAt.
func (w *WarpMeter) Observe(dst, src int, sentAt, arrivedAt sim.Time) {
	var win *Accumulator
	if w.window > 0 {
		idx := int(int64(arrivedAt) / int64(w.window))
		for len(w.accs) <= idx {
			w.accs = append(w.accs, Accumulator{})
		}
		win = &w.accs[idx]
	}
	last, ok := w.last.Upsert(streamKey(dst, src))
	prev := *last
	*last = [2]sim.Time{sentAt, arrivedAt}
	if !ok {
		return
	}
	ds := sentAt.Sub(prev[0]).Seconds()
	if ds <= 0 {
		return
	}
	s := arrivedAt.Sub(prev[1]).Seconds() / ds
	w.acc.Add(s)
	if win != nil {
		win.Add(s)
	}
}

// Samples reports how many warp values have been measured.
func (w *WarpMeter) Samples() int { return w.acc.N() }

// Mean reports the average warp (1 when no samples, i.e. a quiet,
// stable network).
func (w *WarpMeter) Mean() float64 {
	if w.acc.N() == 0 {
		return 1
	}
	return w.acc.Mean()
}

// Max reports the largest warp observed (1 when no samples).
func (w *WarpMeter) Max() float64 {
	if w.acc.N() == 0 {
		return 1
	}
	return w.acc.Max()
}

// Windows returns the per-window mean warp (1 for empty windows), one
// entry per window up to the last arrival's; it is empty without a
// window.
func (w *WarpMeter) Windows() []float64 {
	out := make([]float64, len(w.accs))
	for i := range w.accs {
		if w.accs[i].N() == 0 {
			out[i] = 1
		} else {
			out[i] = w.accs[i].Mean()
		}
	}
	return out
}

// Accumulator is a running mean and maximum.
type Accumulator struct {
	n         int
	mean, max float64
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.mean += (x - a.mean) / float64(a.n)
	if a.n == 1 || x > a.max {
		a.max = x
	}
}

// N returns the sample count.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Max returns the largest sample (0 with no samples).
func (a *Accumulator) Max() float64 { return a.max }

// z90 is the two-sided 90 % normal quantile used by the paper's
// inference stopping rule ("90% confidence intervals to a precision of
// ±0.01").
const z90 = 1.6449

// ProportionCI90HalfWidth returns the 90 % half-width for an estimated
// proportion p from n Bernoulli samples — the form logic sampling's
// event-frequency estimates use.
func ProportionCI90HalfWidth(p float64, n int) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	return z90 * math.Sqrt(p*(1-p)/float64(n))
}

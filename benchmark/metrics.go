package main

import (
	"nscc/internal/metrics"
)

// metric names one reported number and its unit. BENCHMARK.json lists
// the same names and units; the package test keeps the two in step.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of a sweep sees: throughput, CPU,
// memory and start-up cost. An untraced run prints exactly these.
var endToEnd = []metric{
	{"cells_per_s", "cells/s"},
	{"cpu_s_per_cell", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// shareLayers are the layers CPU samples are attributed to, in report
// order; "other" takes samples with no repo frame on the stack.
var shareLayers = []string{"sim", "netsim", "pvm", "core", "ga", "bayes", "rollback", "graph", "metrics", "exper", "other"}

// leafKinds are the stdlib and runtime costs reported by where a
// sample's stack ends, whatever layer called them.
var leafKinds = []string{"rand", "sort", "gc", "map", "sched"}

// countMetrics are the simulated work counts of a representative cell.
// The simulation is deterministic, so a change that only speeds up the
// host must leave every one of them identical.
var countMetrics = []metric{
	{"sim.virtual_s", "sim_s"},
	{"netsim.frames", "count"},
	{"netsim.bytes", "bytes"},
	{"netsim.dropped", "count"},
	{"netsim.queue_delay_s", "sim_s"},
	{"netsim.utilization", "ratio"},
	{"pvm.msgs_sent", "count"},
	{"pvm.recv_cpu_s", "sim_s"},
	{"pvm.send_stalls", "count"},
	{"core.global_reads", "count"},
	{"core.blocked_reads", "count"},
	{"core.block_ratio", "ratio"},
	{"core.blocked_s", "sim_s"},
	{"ga.gens", "count"},
	{"bayes.iters", "count"},
	{"bayes.rollbacks", "count"},
	{"bayes.replay_ratio", "ratio"},
	{"graph.supersteps", "count"},
	{"graph.max_diff", "linf"},
	{"exper.gr_improve_pct", "%"},
}

// runtimeMetrics come from the untraced child's runtime.MemStats.
var runtimeMetrics = []metric{
	{"runtime.alloc_mb_per_cell", "MB"},
	{"runtime.mallocs_per_cell", "count"},
	{"runtime.gc_per_cell", "count"},
}

// perLayer lists every metric a traced run prints, in print order.
func perLayer() []metric {
	var ms []metric
	for _, l := range shareLayers {
		ms = append(ms, metric{l + ".cpu_pct", "%"})
	}
	for _, k := range leafKinds {
		ms = append(ms, metric{"leaf." + k + "_pct", "%"})
	}
	ms = append(ms, metric{"trace.overhead_pct", "%"})
	ms = append(ms, runtimeMetrics...)
	ms = append(ms, countMetrics...)
	for _, m := range microNames {
		ms = append(ms, metric{m + "_ns", "ns/op"}, metric{m + "_allocs", "allocs/op"})
	}
	return ms
}

// counts maps count-metric names to values; names a cell does not
// exercise read as zero.
type counts map[string]float64

// telemetryCounts extracts the cross-layer counts every runner's
// Telemetry carries.
func telemetryCounts(t *metrics.Telemetry) counts {
	c := counts{
		"sim.virtual_s":        t.CompletionSecs,
		"netsim.frames":        float64(t.Net.Frames),
		"netsim.bytes":         float64(t.Net.Bytes),
		"netsim.dropped":       float64(t.Net.Dropped),
		"netsim.queue_delay_s": t.Net.QueueDelaySecs,
		"netsim.utilization":   t.Net.Utilization,
	}
	for _, task := range t.Tasks {
		c["pvm.msgs_sent"] += float64(task.MsgsSent)
		c["pvm.recv_cpu_s"] += task.RecvCPUSecs
		c["pvm.send_stalls"] += float64(task.SendStalls)
		c["core.global_reads"] += float64(task.GlobalReads)
		c["core.blocked_reads"] += float64(task.BlockedReads)
		c["core.blocked_s"] += task.BlockedSecs
	}
	c["core.block_ratio"] = ratio(c["core.blocked_reads"], c["core.global_reads"])
	return c
}

package exper

import (
	"encoding/csv"
	"fmt"
	"io"

	"nscc/internal/ckpt"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/runner"
	"nscc/internal/sim"
)

// Scale sweep: convergence versus dissemination topology as the island
// count grows from tens to thousands. Every cell runs the same
// Global_Read GA for a fixed generation budget on the hierarchical
// rack/spine fabric — the interconnect a 1000+-node cluster needs —
// and the comparison is the quality reached within the budget: the
// all-to-all Broadcast of the paper's 16-node runs against the gossip
// overlays whose per-round traffic is O(P·degree) instead of O(P²).

// ScaleSweepNodes is the default island-count axis. The flag form
// accepts anything up to the fabric's limits (5000-node runs are
// tractable on the gossip overlays); the default keeps a full sweep
// minutes, not hours.
var ScaleSweepNodes = []int{64, 256, 1000}

// ScaleTopologies is the default dissemination axis: the paper's
// Broadcast baseline plus every gossip overlay.
var ScaleTopologies = []ga.Topology{
	ga.Broadcast, ga.GossipRing, ga.GossipRandom, ga.GossipClustered,
}

// scaleBroadcastCap is the largest island count at which the sweep
// still runs the Broadcast baseline: all-to-all dissemination costs
// O(P²) deliveries per migration round, so above this the baseline
// cells would dominate the whole sweep's runtime while demonstrating
// nothing but the saturation the gossip overlays exist to avoid. The
// gossip topologies have no cap.
const scaleBroadcastCap = 256

// scaleAge is the Global_Read staleness bound every cell runs with
// (the paper's mid-range setting).
const scaleAge = 10

// scaleTarget is an unreachable quality target: the sweep measures
// quality-at-budget rather than time-to-quality, so every island runs
// its full generation budget (F1 is nonnegative, so a negative
// population average never occurs).
const scaleTarget = -1

// ScaleRow is one (nodes, topology) aggregate of the scale sweep.
// Durations, generation counts, fitness, and warp are trial means;
// the traffic counters are trial sums.
type ScaleRow struct {
	Nodes    int
	Topology ga.Topology
	Trials   int

	Completion sim.Duration // mean virtual completion time
	Gens       float64      // mean generations per island
	Best       float64      // best objective over all trials (minimization)
	FinalBest  float64      // mean best objective in the final populations
	Avg        float64      // mean final population average — the convergence metric
	Messages   int64        // frames offered to the fabric, trial-summed
	Delivered  int64        // frames delivered (per-destination), trial-summed
	NetBytes   int64        // bytes carried, trial-summed
	QueueDelay sim.Duration // cumulative fabric queuing delay, trial-summed
	Warp       float64      // mean warp metric
}

// scalePairs enumerates the sweep's (node count, topology) grid in
// deterministic order, dropping Broadcast cells past the cap.
func scalePairs(nodes []int, topos []ga.Topology) [][2]int {
	var pairs [][2]int
	for ni, n := range nodes {
		for ti, topo := range topos {
			if topo == ga.Broadcast && n > scaleBroadcastCap {
				continue
			}
			pairs = append(pairs, [2]int{ni, ti})
		}
	}
	return pairs
}

// scaleCellSeed derives the seed of one (nodes, topology, trial) cell
// from the coordinate values (not slice positions), so reordering or
// extending the axes never reseeds cells they share.
func scaleCellSeed(opts Options, nodes int, topo ga.Topology, trial int) int64 {
	return runner.DeriveSeed(opts.Seed, seedStreamScale, int64(nodes), int64(topo), int64(trial))
}

// scaleTrialOut is one cell's raw measurements — the checkpoint
// journal payload.
type scaleTrialOut struct {
	Completion sim.Duration `json:"completion"`
	Gens       float64      `json:"gens"` // mean generations per island
	Best       float64      `json:"best"`
	FinalBest  float64      `json:"final_best"`
	Avg        float64      `json:"avg"`
	Messages   int64        `json:"messages"`
	Delivered  int64        `json:"delivered"`
	NetBytes   int64        `json:"net_bytes"`
	QueueDelay sim.Duration `json:"queue_delay"`
	Warp       float64      `json:"warp"`
}

// scaleTrial runs one fixed-budget Global_Read GA on the rack/spine
// fabric with the given dissemination topology.
func scaleTrial(nodes int, topo ga.Topology, seed int64, opts Options) (scaleTrialOut, error) {
	h := netsim.DefaultHierConfig()
	if opts.LossProb > 0 {
		h.Bus.LossProb = opts.LossProb
	}
	cfg := ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: nodes,
		Mode: core.NonStrict, Age: scaleAge,
		Topology:  topo,
		FixedGens: opts.SyncGens, MinGens: opts.SyncGens, MaxGens: opts.SyncGens,
		Target:  scaleTarget,
		Seed:    seed,
		Calib:   ga.DefaultCalibration(),
		Hier:    &h,
		Options: opts.cluster(),
	}
	res, err := ga.RunIsland(cfg)
	if err != nil {
		return scaleTrialOut{}, err
	}
	var gens int64
	for _, g := range res.Gens {
		gens += g
	}
	return scaleTrialOut{
		Completion: res.Completion,
		Gens:       float64(gens) / float64(nodes),
		Best:       res.Best,
		FinalBest:  res.FinalBest,
		Avg:        res.Avg,
		Messages:   res.Messages,
		Delivered:  res.Telemetry.Net.Delivered,
		NetBytes:   res.NetBytes,
		QueueDelay: res.QueueDelay,
		Warp:       res.WarpMean,
	}, nil
}

// ScaleSweep runs the scaling experiment: for every island count and
// dissemination topology, opts.Trials seeded fixed-budget Global_Read
// runs on the hierarchical fabric. One cell = one pooled job;
// aggregation is in enumeration order, so output is byte-identical at
// any worker count. nil axes select the defaults.
func ScaleSweep(w io.Writer, opts Options, nodes []int, topos []ga.Topology) ([]ScaleRow, error) {
	if nodes == nil {
		nodes = ScaleSweepNodes
	}
	if topos == nil {
		topos = ScaleTopologies
	}
	pairs := scalePairs(nodes, topos)
	nTrials := opts.Trials
	nCells := len(pairs) * nTrials
	coords := func(i int) (n int, topo ga.Topology, trial int) {
		pair := pairs[i/nTrials]
		return nodes[pair[0]], topos[pair[1]], i % nTrials
	}
	outs, err := runSweep(opts, "scalesweep", nCells,
		func(i int) ckpt.Key {
			n, topo, trial := coords(i)
			return scaleCellKey(n, topo, trial, scaleCellSeed(opts, n, topo, trial))
		},
		func(i int) string {
			n, topo, trial := coords(i)
			return fmt.Sprintf("scalesweep nodes=%d %s trial=%d", n, topo, trial)
		},
		func(i int) (scaleTrialOut, error) {
			n, topo, trial := coords(i)
			return scaleTrial(n, topo, scaleCellSeed(opts, n, topo, trial), opts)
		})
	if err != nil {
		return nil, err
	}

	// Aggregate trials in enumeration order.
	rows := make([]ScaleRow, 0, len(pairs))
	for pi, pair := range pairs {
		row := ScaleRow{Nodes: nodes[pair[0]], Topology: topos[pair[1]], Trials: nTrials}
		for trial := 0; trial < nTrials; trial++ {
			out := outs[pi*nTrials+trial]
			row.Completion += out.Completion
			row.Gens += out.Gens
			if trial == 0 || out.Best < row.Best {
				row.Best = out.Best
			}
			row.FinalBest += out.FinalBest
			row.Avg += out.Avg
			row.Messages += out.Messages
			row.Delivered += out.Delivered
			row.NetBytes += out.NetBytes
			row.QueueDelay += out.QueueDelay
			row.Warp += out.Warp
		}
		row.Completion /= sim.Duration(nTrials)
		row.Gens /= float64(nTrials)
		row.FinalBest /= float64(nTrials)
		row.Avg /= float64(nTrials)
		row.Warp /= float64(nTrials)
		rows = append(rows, row)
	}

	if w != nil {
		fmt.Fprintf(w, "Scale sweep: convergence vs dissemination topology, %d-generation budget on the rack/spine fabric\n",
			opts.SyncGens)
		fmt.Fprintf(w, "%6s %-17s %7s %10s %10s %12s %10s %10s %6s\n",
			"nodes", "topology", "gens", "avg", "best", "completion", "frames", "MB", "warp")
		for _, r := range rows {
			fmt.Fprintf(w, "%6d %-17s %7.1f %10.4g %10.4g %12v %10d %10.1f %6.2f\n",
				r.Nodes, r.Topology, r.Gens, r.Avg, r.Best, r.Completion,
				r.Messages, float64(r.NetBytes)/1e6, r.Warp)
		}
	}
	return rows, nil
}

// WriteScaleRowsCSV emits scale sweep rows as CSV (one line per
// (nodes, topology)) for external plotting.
func WriteScaleRowsCSV(w io.Writer, rows []ScaleRow) error {
	cw := csv.NewWriter(w)
	header := []string{"nodes", "topology", "trials", "gens", "avg", "final_best", "best",
		"completion_s", "messages", "delivered", "net_bytes", "queue_delay_s", "warp"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			fmt.Sprintf("%d", r.Nodes),
			r.Topology.String(),
			fmt.Sprintf("%d", r.Trials),
			fmt.Sprintf("%.1f", r.Gens),
			fmt.Sprintf("%.6g", r.Avg),
			fmt.Sprintf("%.6g", r.FinalBest),
			fmt.Sprintf("%.6g", r.Best),
			fmt.Sprintf("%.6f", r.Completion.Seconds()),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%d", r.NetBytes),
			fmt.Sprintf("%.6f", r.QueueDelay.Seconds()),
			fmt.Sprintf("%.3f", r.Warp),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

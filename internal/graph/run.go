package graph

import (
	"errors"
	"fmt"
	"math"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
	"nscc/internal/trace"
)

// ctrlTag carries per-superstep convergence reports to partition 0,
// the termination coordinator.
const ctrlTag = 9100

// doneTag carries the coordinator's "the fixed point is reached"
// broadcast.
const doneTag = 9000

// doneMsgSize is the network size of a termination notice.
const doneMsgSize = 8

// sentinelIter is the iteration stamp of the final state an exiting
// partition publishes, so no peer ever blocks on its location again.
const sentinelIter int64 = 1 << 60

// ctrlMsg is one partition's per-superstep report to the coordinator:
// its residual and frontier for the superstep, plus the freshest
// iteration it has observed from each of its source partitions (Seen
// is aligned with the partition's source list). The Seen vector is
// what makes asynchronous termination safe: a residual can look clean
// on stale operands, so the coordinator only trusts clean reports
// computed from every source's post-last-change state.
type ctrlMsg struct {
	Part     int
	Iter     int64
	Residual float64
	Frontier int64
	Seen     []int64

	// refs counts the report's deliveries the coordinator has not yet
	// folded: one per send, plus one per duplicate the network makes.
	// The last fold returns the report to the run's free list.
	refs int
}

// Retain takes n more delivery shares of the report (see
// pvm.Message.Retain).
func (m *ctrlMsg) Retain(n int) { m.refs += n }

// ctrlMsgSize is the network size of a convergence report carrying
// nsrc observed-iteration entries.
func ctrlMsgSize(nsrc int) int { return 24 + 8*nsrc }

// termination is the coordinator's view of the convergence reports
// (partition 0 only): per partition, the superstep of the last report
// folded, its residual, the run of consecutive clean reports, the last
// dirty superstep and the latest Seen vector.
type termination struct {
	partEps   float64
	sources   [][]int
	last      []int64
	resid     []float64
	cleanRun  []int
	lastDirty []int64
	lastSeen  [][]int64
}

func newTermination(partEps float64, sources [][]int) *termination {
	n := len(sources)
	t := &termination{
		partEps:   partEps,
		sources:   sources,
		last:      make([]int64, n),
		resid:     make([]float64, n),
		cleanRun:  make([]int, n),
		lastDirty: make([]int64, n),
		lastSeen:  make([][]int64, n),
	}
	for q := 0; q < n; q++ {
		t.last[q] = -1
		t.lastDirty[q] = -1
		t.lastSeen[q] = make([]int64, len(sources[q]))
		for i := range t.lastSeen[q] {
			t.lastSeen[q][i] = core.NoValue
		}
	}
	return t
}

// fold folds one convergence report into the termination state. A
// report no newer than its partition's last one is a duplicate or a
// reordered delivery, which only the plain transport makes, and
// changes nothing. Clean means residual at or below the partition's
// share of the bound — the sequential oracle's criterion, NOT a bitwise
// fixed point: PageRank can oscillate forever in the last ulp (so a
// nonzero frontier alone must not veto), while for SSSP the residual
// IS the frontier count, so a clean report already implies an empty
// frontier.
func (t *termination) fold(m *ctrlMsg) {
	if m.Iter <= t.last[m.Part] {
		return
	}
	t.last[m.Part] = m.Iter
	t.resid[m.Part] = m.Residual
	if m.Residual <= t.partEps {
		t.cleanRun[m.Part]++
	} else {
		t.cleanRun[m.Part] = 0
		t.lastDirty[m.Part] = m.Iter
	}
	copy(t.lastSeen[m.Part], m.Seen)
}

// converged decides termination: every partition clean for quiet
// consecutive reports, and every clean report computed from each
// source's post-last-change state — a residual that only looked clean
// on stale operands cannot pass. Within the convergence bound, the
// assembled state is then a global fixed point of one Jacobi step.
func (t *termination) converged(quiet int) bool {
	for q, srcs := range t.sources {
		if t.cleanRun[q] < quiet {
			return false
		}
		for si, src := range srcs {
			if t.lastSeen[q][si] <= t.lastDirty[src] {
				return false
			}
		}
	}
	return true
}

// Config describes one partitioned graph-kernel run.
//
// A run converges to the global bound DefaultEps. A partition is clean
// when its superstep residual is at most DefaultEps/P, so the summed
// residual at convergence is at most DefaultEps — directly comparable
// to the sequential oracle's global bound. The coordinator declares
// convergence once every partition has sent enough consecutive clean
// reports (on top of the seen-frontier condition — see ctrlMsg): 1 for
// Sync, whose barrier makes residuals exact global state, and 4 for
// Async and NonStrict, covering the dirty reports that can still be in
// flight when the coordinator's picture looks quiet. The differential
// oracle test is the empirical proof of these windows.
type Config struct {
	G    *Graph
	Algo Algo
	P    int // partitions / simulated processors
	Mode core.Mode
	Age  int64 // Global_Read staleness bound (NonStrict mode), in supersteps

	// MaxSupersteps caps a run that fails to converge (required).
	MaxSupersteps int64

	Seed     int64
	Calib    Calibration
	NodeOpts core.Options

	// Net overrides the bus network model (nil = netsim.DefaultConfig()).
	Net *netsim.Config
	// Switch, if set, runs on the SP2-style crossbar switch instead.
	Switch *netsim.SwitchConfig
	// PVM overrides the messaging overheads (nil = pvm.DefaultConfig()).
	PVM *pvm.Config

	// Options are the run's fault and observation settings. A series
	// set also records counter "graph.iters" (supersteps per window),
	// gauge "graph.residual" and gauge "graph.frontier_size" (freshest
	// per-superstep values).
	cluster.Options

	// OnSuperstep, if set, observes every partition's owned sub-vector
	// at the end of each superstep (the property-test hook; the engine
	// is serialized, so no synchronization is needed). The slice is
	// live — observers must copy what they keep.
	OnSuperstep func(part int, iter int64, owned []float64)
}

// Result reports one partitioned run.
type Result struct {
	Values     []float64 // assembled final state vector
	Supersteps []int64   // supersteps completed per partition
	Converged  bool      // the coordinator declared quiet convergence
	Residual   float64   // sum of the partitions' final residual reports

	cluster.Stats
}

// quietWindow returns the mode's consecutive-clean window.
func (c Config) quietWindow() int {
	if c.Mode == core.Sync {
		return 1
	}
	return 4
}

// Plan is the layout every run of one graph, algorithm and partition
// count shares: the partitions' contiguous vertex blocks, the DSM
// location each publishes and the source partitions each reads, the
// iteration-0 state, and each partition's kernel with its operands
// loaded from that state. A graph sweep cell runs its seven coherence
// variants on one plan instead of laying the partitions out seven
// times.
//
// No run writes a plan: a run clones only its kernels' per-run state,
// their operands and accumulators, so concurrent runs may share one.
type Plan struct {
	g    *Graph
	algo Algo
	p    int

	bounds  []int            // partition q owns [bounds[q], bounds[q+1])
	locs    []*core.Location // partition q publishes locs[q]
	sources [][]int          // per partition: whose locations it reads
	// cuts[q][si] is the index of kernels[q]'s first ghost in source
	// sources[q][si]'s block, and cuts[q][len(sources[q])] the ghost
	// count: the ghosts of source si are [cuts[q][si], cuts[q][si+1]),
	// since both lists ascend.
	cuts    [][]int
	init    []float64 // the iteration-0 state vector
	kernels []*kernel // operands loaded from init; runs fold on clones
}

// NewPlan lays out runs of algo over g on p partitions. A nil graph,
// p < 1 and more partitions than vertices are errors.
func NewPlan(g *Graph, algo Algo, p int) (*Plan, error) {
	switch {
	case g == nil:
		return nil, errors.New("graph: NewPlan needs a graph")
	case p < 1:
		return nil, fmt.Errorf("graph: NewPlan needs at least 1 partition, have %d", p)
	case p > g.N:
		return nil, fmt.Errorf("graph: %d partitions for %d vertices", p, g.N)
	}
	// Partitioning: contiguous vertex blocks; partition q reads the
	// location of every partition owning a source of one of q's
	// in-edges.
	bounds := partBounds(g.N, p)
	part := make([]int, g.N)
	for q := 0; q < p; q++ {
		for v := bounds[q]; v < bounds[q+1]; v++ {
			part[v] = q
		}
	}
	reads := make([][]bool, p)
	for q := range reads {
		reads[q] = make([]bool, p)
	}
	for v := 0; v < g.N; v++ {
		q := part[v]
		for i := g.InOff[v]; i < g.InOff[v+1]; i++ {
			if r := part[g.InSrc[i]]; r != q {
				reads[q][r] = true
			}
		}
	}
	pl := &Plan{
		g: g, algo: algo, p: p,
		bounds:  bounds,
		locs:    make([]*core.Location, p),
		sources: make([][]int, p),
		cuts:    make([][]int, p),
		init:    initValues(algo, g.N),
		kernels: make([]*kernel, p),
	}
	for w := 0; w < p; w++ {
		var readers []int
		for q := 0; q < p; q++ {
			if reads[q][w] {
				readers = append(readers, q)
				pl.sources[q] = append(pl.sources[q], w)
			}
		}
		pl.locs[w] = &core.Location{
			ID:      w,
			Name:    "state",
			Writer:  w,
			Readers: readers,
			Size:    StateBytes(bounds[w+1] - bounds[w]),
		}
	}
	// Each partition folds its in-edges through its own kernel, whose
	// ghost slots hold the initial state until a source block arrives.
	initOps := make([]float64, g.N)
	operands(g, algo, 0, pl.init, initOps)
	var scratch kernelScratch
	for q := range pl.kernels {
		k := newKernel(g, algo, bounds[q], bounds[q+1], &scratch)
		k.load(initOps)
		cut := make([]int, len(pl.sources[q])+1)
		for si, src := range pl.sources[q] {
			cut[si] = k.ghostIndex(bounds[src])
		}
		cut[len(pl.sources[q])] = len(k.ghosts)
		pl.kernels[q], pl.cuts[q] = k, cut
	}
	return pl, nil
}

// Run executes one partitioned graph-kernel configuration on a fresh
// simulated cluster: NewPlan for cfg's graph, algorithm and partition
// count, then Run. The run is deterministic in cfg.Seed. An impossible
// config, a negative Global_Read age among them, comes back as an
// error.
func Run(cfg Config) (Result, error) {
	pl, err := NewPlan(cfg.G, cfg.Algo, cfg.P)
	if err != nil {
		return Result{}, err
	}
	return pl.Run(cfg)
}

// Run executes one partitioned graph-kernel configuration on the plan
// and a fresh simulated cluster, with the same result Run(cfg) gives.
// cfg's G, Algo and P must be the plan's; a mismatch, like any other
// impossible config, comes back as an error.
func (pl *Plan) Run(cfg Config) (Result, error) {
	switch {
	case cfg.G != pl.g:
		return Result{}, errors.New("graph: Run config names another graph than its plan")
	case cfg.Algo != pl.algo:
		return Result{}, fmt.Errorf("graph: Run config runs %s, its plan %s", cfg.Algo, pl.algo)
	case cfg.P != pl.p:
		return Result{}, fmt.Errorf("graph: Run config has P=%d, its plan %d", cfg.P, pl.p)
	case cfg.MaxSupersteps <= 0:
		return Result{}, fmt.Errorf("graph: Run needs MaxSupersteps > 0, have %d", cfg.MaxSupersteps)
	case cfg.Mode == core.NonStrict && cfg.Age < 0:
		return Result{}, fmt.Errorf("graph: %s mode needs Age >= 0, have %d", cfg.Mode, cfg.Age)
	}
	g := cfg.G
	partEps := DefaultEps / float64(cfg.P)
	quiet := cfg.quietWindow()
	bounds, locs, sources := pl.bounds, pl.locs, pl.sources

	cl, err := cluster.Build(cluster.Spec{
		Seed: cfg.Seed, Net: cfg.Net, Switch: cfg.Switch, PVM: cfg.PVM, Options: cfg.Options,
	})
	if err != nil {
		return Result{}, err
	}
	serIters := cfg.Series.Counter("graph.iters")
	serResid := cfg.Series.Gauge("graph.residual")
	serFrontier := cfg.Series.Gauge("graph.frontier_size")

	members := make([]int, cfg.P)
	for q := range members {
		members[q] = q
	}
	barrier := core.NewMsgBarrier(members)

	res := Result{
		Values:     make([]float64, g.N),
		Supersteps: make([]int64, cfg.P),
	}
	coord := newTermination(partEps, sources)
	// reports is the run's free list of convergence reports: the
	// coordinator returns each report after folding its last delivery,
	// and the other partitions send theirs from the list.
	var reports []*ctrlMsg

	for p := 0; p < cfg.P; p++ {
		p := p
		cl.Spawn("part", func(task *pvm.Task) {
			node := cl.Node(task, cfg.NodeOpts)
			for _, l := range locs {
				node.Register(l)
			}
			lo, hi := bounds[p], bounds[p+1]
			owned := append([]float64(nil), pl.init[lo:hi]...)
			// kern's operands are every source block's ghosts as last
			// gathered, and this partition's block as last published.
			// The ghosts of source si are kern.ghosts[cut[si]:cut[si+1]].
			kern := pl.kernels[p].clone()
			cut := pl.cuts[p]
			seen := make([]int64, len(sources[p])) // freshest observed iter per source
			for i := range seen {
				seen[i] = core.NoValue
			}
			// held is the stamp of the block each source's ghosts were
			// last gathered from. A partition fills at most one block
			// per superstep, so a block with the same stamp carries the
			// same values and needs no gather.
			held := make([]int64, len(sources[p]))
			for i := range held {
				held[i] = -1
			}
			// payload is owned in operand form as last published, nil
			// once owned has changed since. blocks is the partition's
			// free list, which payloads return to once no buffer or
			// message holds them.
			var payload *stateBlock
			blocks := &blockPool{}
			// changed reports that owned or some of kern's ghosts
			// changed since the last superstep call (or that it never
			// ran). While it is false, the kernel would leave owned as
			// it is with residual 0 and frontier 0, so the call is
			// skipped.
			changed := true
			jit := cfg.Calib.NewJitterer(task.Proc().Rng())
			stepCost := cfg.Calib.StepCost(hi-lo, int(g.InOff[hi]-g.InOff[lo])).Seconds()
			done := false
			var own ctrlMsg // partition 0's own report, folded in place

			// publish writes owned, in operand form, to this partition's
			// location as its iteration iter value; at is the superstep
			// whose entering state owned is. A partition whose state has
			// not changed since its last publish republishes the same
			// block.
			publish := func(at, iter int64) {
				if payload == nil {
					payload = blocks.get(hi - lo)
					payload.at = at
					operands(g, cfg.Algo, lo, owned, payload.vals)
					copy(kern.ops, payload.vals) // the own block leads kern.ops
				}
				node.Write(locs[p], iter, payload)
			}

			finish := func(iter int64) {
				// Publish the final state so no peer ever blocks on this
				// partition again, then record results.
				publish(iter, sentinelIter)
				res.Supersteps[p] = iter
				copy(res.Values[lo:hi], owned)
				cl.Exit(node)
			}

			// collect folds every report waiting in the mailbox, and
			// returns each to the free list after its last delivery. The
			// nscc_poison build has a returned report name partition -1,
			// so folding it again panics.
			collect := func() {
				for {
					m := task.NRecv(pvm.Any, ctrlTag)
					if m == nil {
						return
					}
					r := m.Data.(*ctrlMsg)
					coord.fold(r)
					if r.refs--; r.refs == 0 {
						if poisonReleased {
							r.Part = -1
						}
						reports = append(reports, r)
					}
				}
			}

			for iter := int64(0); ; iter++ {
				if done || iter >= cfg.MaxSupersteps {
					finish(iter)
					return
				}
				// Asynchronous termination is polled: the coordinator
				// folds whatever reports have arrived and leaves the
				// moment it sees convergence (the sentinel publish keeps
				// late readers from ever blocking on it); peers poll the
				// notice between supersteps. Sync termination instead
				// rides the barrier — see the end of the loop.
				if cfg.Mode != core.Sync {
					if p == 0 {
						collect()
						if coord.converged(quiet) {
							res.Converged = true
							task.Bcast(doneTag, doneMsgSize, nil)
							finish(iter)
							return
						}
					} else if task.NRecv(pvm.Any, doneTag) != nil {
						finish(iter)
						return
					}
				}

				// Publish this superstep's state, then read the peers
				// under the run's coherence discipline.
				stepStart := task.Now()
				publish(iter, iter)
				for si, src := range sources[p] {
					var u core.Update
					ok := false
					switch cfg.Mode {
					case core.Sync:
						u = node.GlobalRead(locs[src], iter, 0)
						ok = u.Iter != core.NoValue
					case core.Async:
						//nscc:tolerates-stale loc=state -- Jacobi merge is monotone per vertex; stale views only slow convergence
						u, ok = node.Read(locs[src])
					case core.NonStrict:
						//nscc:tolerates-stale loc=state -- the Global_Read age bound is the tolerance contract; simrace classifies the residue
						u = node.GlobalRead(locs[src], iter, cfg.Age)
						ok = u.Iter != core.NoValue
					}
					if !ok {
						continue // nothing arrived yet: keep the initial view
					}
					if u.Iter > seen[si] {
						seen[si] = u.Iter
					}
					// The block stays valid until this node's next DSM
					// call, so it is gathered here or not at all.
					if b := u.Value.(*stateBlock); b.at != held[si] {
						kern.gather(cut[si], cut[si+1], bounds[src], b.vals)
						held[si] = b.at
						changed = true
					}
				}

				var residual float64
				var frontier int64
				if changed {
					residual, frontier = kern.superstep(owned)
					changed = frontier != 0
					if changed {
						payload = nil
					}
				}
				task.Compute(sim.DurationOf(stepCost * jit.Next()))

				if p == 0 {
					own.Iter, own.Residual, own.Frontier, own.Seen = iter, residual, frontier, seen
					coord.fold(&own)
				} else {
					var m *ctrlMsg
					if k := len(reports); k > 0 {
						m = reports[k-1]
						reports[k-1] = nil
						reports = reports[:k-1]
					} else {
						m = &ctrlMsg{}
					}
					m.Part, m.Iter, m.Residual, m.Frontier, m.refs = p, iter, residual, frontier, 1
					m.Seen = append(m.Seen[:0], seen...)
					task.Send(0, ctrlTag, ctrlMsgSize(len(seen)), m)
				}

				now := task.Now()
				serIters.Add(now, 1)
				serResid.Add(now, residual)
				serFrontier.Add(now, float64(frontier))
				if tr := task.Tracer(); tr != nil {
					tr.Emit(trace.Event{TS: int64(stepStart), Dur: int64(now.Sub(stepStart)),
						Ph: trace.PhaseSpan, Pid: trace.PidApp, Tid: p, Cat: "graph", Name: "superstep",
						K1: "iter", V1: iter, K2: "frontier", V2: frontier})
				}
				if cfg.OnSuperstep != nil {
					cfg.OnSuperstep(p, iter, owned)
				}
				if cfg.Mode == core.Sync {
					// Sync termination rides the barrier: every ctrl report
					// precedes its sender's barrier arrival on the same
					// (src,dst) FIFO stream, so once the coordinator (also
					// the barrier coordinator, member 0) is released it has
					// this superstep's complete picture in its mailbox. It
					// decides and broadcasts a verdict that every peer
					// BLOCKS on — nobody can enter a barrier round the
					// coordinator will not serve, which keeps the exit
					// deadlock-free even when fault injection delays the
					// notice arbitrarily (run Reliable under lossy plans;
					// the barrier itself needs delivery to terminate).
					barrier.Wait(task)
					if p == 0 {
						collect()
						stop := coord.converged(quiet)
						if stop {
							res.Converged = true
							done = true
						}
						task.Bcast(doneTag, doneMsgSize, stop)
					} else if task.Recv(0, doneTag).Data.(bool) {
						done = true
					}
				}
			}
		})
	}

	res.Stats, err = cl.Run(cfg.Mode, cfg.Age)
	if err != nil {
		return res, err
	}
	for _, r := range coord.resid {
		res.Residual += r
	}
	if math.IsNaN(res.Residual) {
		res.Residual = math.Inf(1)
	}
	return res, nil
}

package bayes

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/partition"
	"nscc/internal/pvm"
	"nscc/internal/rollback"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// Message tags and sizes of the parallel sampler's own protocol.
const (
	doneTag = 9000

	doneMsgSize     = 8
	progressMsgSize = 24
)

// sentinelIter marks the final write of an exiting partition so no peer
// ever blocks on its locations again.
const sentinelIter int64 = 1 << 60

// ParallelConfig describes one parallel logic-sampling run.
type ParallelConfig struct {
	Net       *Network
	Query     Query
	P         int
	Mode      core.Mode
	Age       int64   // Global_Read staleness bound (NonStrict)
	Precision float64 // CI half-width target (the paper's 0.01)
	MaxIters  int64   // raw-iteration safety cap per partition
	Seed      int64
	Calib     Calibration

	// Batch overrides the update-batching depth (iterations per
	// interface message) for the Async and NonStrict modes. 0 picks the
	// default: max(1, min(Age, 16)) for NonStrict, 8 for Async. The
	// synchronous mode cannot batch: it must exchange every phase of
	// every iteration.
	Batch int64

	NetCfg *netsim.Config
	// SwitchCfg, if set, runs on an SP2-style crossbar switch instead
	// of the shared Ethernet.
	SwitchCfg *netsim.SwitchConfig
	PVM       *pvm.Config
	LoaderBps float64

	// RandomDefaults replaces the most-probable-state defaults with
	// arbitrary fixed states (ablation: the paper derives defaults from
	// the nodes' probability distributions so gambles usually pay off).
	RandomDefaults bool

	// Options are the run's fault and observation settings. A tracer
	// also receives per-iteration app spans and rollback/antimessage
	// instants, and a series set counters "bayes.iters" and
	// "bayes.rollbacks".
	cluster.Options
}

// ParallelResult reports one parallel run.
type ParallelResult struct {
	Prob             float64
	HalfWidth        float64
	Iters            int64 // iterations the coordinator partition executed
	Accepted         int64
	ReachedPrecision bool

	Rollbacks int64
	Replayed  int64 // iterations re-executed by rollback replays
	Gambles   int64
	Conflicts int64
	Retracts  int64

	EdgeCut int // dependency edges crossing partitions

	cluster.Stats
}

// topology is the precomputed partition/communication structure of one
// Plan, shared read-only by every worker of every run on it.
type topology struct {
	parts       []int
	coordinator int
	iface       []map[int][]int // [src][dst] -> src nodes sent to dst
	phases      []int           // per node: cross-partition depth (sync waves)
	numPhases   int
	bundleLocs  []map[int]*core.Location
	progLocs    []*core.Location
	cut         int
}

// buildTopology partitions the network (Kernighan–Lin bisection,
// recursively for P>2 — the paper's METIS stand-in, §4.2.2) and derives
// the interface sets, synchronous wave phases, and DSM locations.
// General partitions have cross-dependencies in both directions, so
// within one sample the partitions mutually need each other's interface
// values — which is why the asynchronous modes gamble on defaults for
// the current iteration and repair by rollback, and why the synchronous
// mode needs multiple exchange waves per iteration.
func buildTopology(bn *Network, q Query, p int, seed int64) *topology {
	t := &topology{}
	rng := rand.New(rand.NewSource(seed ^ 0x9a27))
	switch {
	case p == 1:
		t.parts = make([]int, bn.N())
	case p == 2:
		t.parts = partition.Bisect(bn.Graph(), rng)
	default:
		t.parts = partition.KWay(bn.Graph(), p, rng)
	}
	t.coordinator = t.parts[q.Node]

	children := make([][]int, bn.N())
	for c := range bn.Nodes {
		for _, pa := range bn.Nodes[c].Parents {
			children[pa] = append(children[pa], c)
		}
	}

	t.iface = make([]map[int][]int, p)
	for u := 0; u < bn.N(); u++ {
		seen := map[int]bool{}
		for _, c := range children[u] {
			if t.parts[c] != t.parts[u] {
				t.cut++
				if !seen[t.parts[c]] {
					seen[t.parts[c]] = true
					if t.iface[t.parts[u]] == nil {
						t.iface[t.parts[u]] = map[int][]int{}
					}
					t.iface[t.parts[u]][t.parts[c]] = append(t.iface[t.parts[u]][t.parts[c]], u)
				}
			}
		}
	}

	// Sync wave phases: a node's phase is the maximum number of
	// cross-partition hops on any ancestor path; within one iteration,
	// phase-k nodes can be sampled once phase-(k-1) interface values
	// have been exchanged.
	t.phases = make([]int, bn.N())
	for u := 0; u < bn.N(); u++ {
		ph := 0
		for _, pa := range bn.Nodes[u].Parents {
			pph := t.phases[pa]
			if t.parts[pa] != t.parts[u] {
				pph++
			}
			if pph > ph {
				ph = pph
			}
		}
		t.phases[u] = ph
	}
	t.numPhases = 1
	for _, ph := range t.phases {
		if ph+1 > t.numPhases {
			t.numPhases = ph + 1
		}
	}

	locID := 0
	t.bundleLocs = make([]map[int]*core.Location, p)
	for src := 0; src < p; src++ {
		t.bundleLocs[src] = map[int]*core.Location{}
		dsts := map[int]bool{}
		for dst := range t.iface[src] {
			dsts[dst] = true
		}
		if src != t.coordinator {
			dsts[t.coordinator] = true // evidence-bit stream
		}
		// Deterministic dst order: location ids must be identical
		// across runs of the same seed (they reach traces and the race
		// classifier), so never assign them in map-iteration order.
		for dst := 0; dst < p; dst++ {
			if !dsts[dst] {
				continue
			}
			t.bundleLocs[src][dst] = &core.Location{
				ID: locID, Name: "bundle", Writer: src, Readers: []int{dst},
				Size: bundleBytes(len(t.iface[src][dst]), 1),
			}
			locID++
		}
	}
	t.progLocs = make([]*core.Location, p)
	for q := 0; q < p; q++ {
		readers := make([]int, 0, p-1)
		for r := 0; r < p; r++ {
			if r != q {
				readers = append(readers, r)
			}
		}
		t.progLocs[q] = &core.Location{
			ID: locID, Name: "progress", Writer: q, Readers: readers,
			Size: progressMsgSize,
		}
		locID++
	}
	return t
}

// syncStamp encodes (iteration, phase) monotonically for the
// synchronous mode's location stamps.
func (t *topology) syncStamp(iter int64, phase int) int64 {
	return iter*int64(t.numPhases) + int64(phase)
}

// worker is one partition's runtime state.
type worker struct {
	cfg  *ParallelConfig
	bn   *Network
	lut  *lut // flattened CPT/evidence tables, shared read-only by the run
	p    int
	topo *topology

	task  *pvm.Task
	node  *core.Node
	store *rollback.Store

	defaults []int
	owned    []int  // node ids owned by this partition (topological order)
	pos      []int  // node id -> index in owned; -1 for foreign nodes
	evNodes  []int  // evidence nodes owned by this partition
	steps    []step // owned nodes' compiled draws, in owned order (the plan's)

	targets []int // partitions we send bundles to
	sources []int // partitions we receive bundles from
	// barrier is the synchronous variant's barrier, whose release
	// carries the coordinator's stop verdict.
	barrier *core.MsgBarrier
	// tgtPhase[ti][ph]: the interface nodes sent to targets[ti] in sync
	// phase ph, and phaseSteps[ph] the indices into steps of the
	// phase-ph nodes (precomputed so syncIteration builds no
	// per-phase lists).
	tgtPhase   [][][]int
	phaseSteps [][]int

	bundles bundlePool // this partition's recycled interface bundles

	// The sample log: row t (see row) holds iteration t's owned values
	// in owned order, and logLen rows have been sampled. Rows live in
	// slabs of logChunk rows, so the log grows by one slab per chunk
	// and no row ever moves; rollbacks repair rows in place.
	logSlabs   [][]int8
	logLen     int64
	rowScratch []int8 // pre-repair copy buffer for handleRollbacks

	batch     int64
	batchFrom int64
	replayed  int64
	jit       *sim.Jitterer

	// Windowed series handles (nil when the run records none).
	serIters     *tseries.Series
	serRollbacks *tseries.Series

	// Coordinator-only state.
	coord   bool
	evBits  [][]int8 // [part][iter]: -1 unknown, 0 no, 1 yes
	evKnown []int64  // per part: length of the known (>= 0) prefix of evBits
	stopped bool

	// Incremental stopping-rule counters (coordinator only): iterations
	// [0, cntWM) are folded into cntAcc/cntHits, so each preciseEnough
	// check counts only newly finalized iterations instead of rescanning
	// from zero. setEvBit and recountRepair adjust the counters when an
	// already-counted iteration's evidence bit or sample row changes.
	cntWM   int64
	cntAcc  int64
	cntHits int64
}

// logChunk is how many sample rows share one log slab.
const logChunk = 256

// row returns iteration t's sample row.
func (w *worker) row(t int64) []int8 {
	n := len(w.owned)
	off := int(t%logChunk) * n
	return w.logSlabs[t/logChunk][off : off+n : off+n]
}

// newLogRow returns the zeroed row of iteration logLen, the next to be
// sampled; it joins the log when the caller increments logLen.
func (w *worker) newLogRow() []int8 {
	if w.logLen/logChunk == int64(len(w.logSlabs)) {
		w.logSlabs = append(w.logSlabs, make([]int8, logChunk*len(w.owned)))
	}
	return w.row(w.logLen)
}

// Plan is the set-up that every run of one network, query, processor
// count and seed shares: the partition with its interface sets,
// synchronous wave phases and DSM locations, the flattened tables, and
// the default values estimated from the nodes' distributions (§3.2).
// Figure 3's variants of one network and trial differ only in mode and
// age, so they run on one plan instead of each re-partitioning the
// network and re-sampling its defaults.
//
// No run writes a plan, so concurrent runs may share one.
type Plan struct {
	net      *Network
	query    Query // Evidence is the plan's own copy
	p        int
	seed     int64
	topo     *topology
	lut      *lut
	defaults []int
	steps    [][]step // per partition: its nodes' compiled draws
}

// step is one owned node's compiled draw in its partition's sample row:
// the node's running-sum rows, the (seed, node) round of its hash, and
// where each parent's state comes from.
type step struct {
	node   int
	states int
	key    uint64    // nodeKey(seed, node)
	cum    []float64 // the node's running-sum rows (aliases the plan's lut)
	slots  []slot    // one per parent, in Parents order
}

// slot is where a step reads one parent's state: the sample row at
// position at for a parent its partition owns, or the rollback ledger
// for the remote node ^at (at < 0). stride is the parent's row-index
// weight.
type slot struct {
	at     int
	stride int
}

// compileSteps lays out each partition's steps, its nodes in
// topological order (which is also their order in its sample rows).
func compileSteps(l *lut, parts []int, p int, seed int64) [][]step {
	steps := make([][]step, p)
	pos := make([]int, len(parts))
	for u, q := range parts {
		pos[u] = len(steps[q])
		slots := make([]slot, len(l.parents[u]))
		for k, pa := range l.parents[u] {
			slots[k] = slot{at: ^pa, stride: l.strides[u][k]}
			if parts[pa] == q {
				slots[k].at = pos[pa]
			}
		}
		steps[q] = append(steps[q], step{
			node: u, states: l.states[u], key: nodeKey(seed, u),
			cum: l.cum[u], slots: slots,
		})
	}
	return steps
}

// NewPlan partitions net into p parts for runs of query q at seed and
// estimates the defaults those runs gamble on. A nil network or p < 1
// is an error.
func NewPlan(net *Network, q Query, p int, seed int64) (*Plan, error) {
	switch {
	case net == nil:
		return nil, errors.New("bayes: NewPlan needs a network")
	case p < 1:
		return nil, fmt.Errorf("bayes: NewPlan needs at least 1 processor, have %d", p)
	case net.MaxStates() > math.MaxInt8:
		// Sample rows, interface bundles and the rollback ledger hold a
		// state in an int8.
		return nil, fmt.Errorf("bayes: NewPlan takes nodes of at most %d states, have %d", math.MaxInt8, net.MaxStates())
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	q.Evidence = maps.Clone(q.Evidence)
	topo, l := buildTopology(net, q, p, seed), newLUT(net, q)
	return &Plan{
		net: net, query: q, p: p, seed: seed, topo: topo, lut: l,
		defaults: net.Defaults(2000, seed^0x5eed),
		steps:    compileSteps(l, topo.parts, p, seed),
	}, nil
}

// RunParallel executes one parallel logic-sampling configuration on a
// fresh simulated cluster: NewPlan for cfg's network, query, processor
// count and seed, then Run. Deterministic in cfg.Seed. An impossible
// config, a negative Global_Read age among them, comes back as an
// error.
func RunParallel(cfg ParallelConfig) (ParallelResult, error) {
	pl, err := NewPlan(cfg.Net, cfg.Query, cfg.P, cfg.Seed)
	if err != nil {
		return ParallelResult{}, err
	}
	return pl.Run(cfg)
}

// Run executes one parallel logic-sampling configuration on the plan
// and a fresh simulated cluster, with the same result RunParallel(cfg)
// gives. cfg's Net, Query, P and Seed must be the plan's; a mismatch,
// like any other impossible config, comes back as an error.
func (pl *Plan) Run(cfg ParallelConfig) (ParallelResult, error) {
	res, _, err := pl.run(cfg)
	return res, err
}

// run is Run, also returning the partitions' workers as the run left
// them.
func (pl *Plan) run(cfg ParallelConfig) (ParallelResult, []*worker, error) {
	bn := cfg.Net
	switch {
	case bn != pl.net:
		return ParallelResult{}, nil, errors.New("bayes: Run config names another network than its plan")
	case cfg.P != pl.p:
		return ParallelResult{}, nil, fmt.Errorf("bayes: Run config has P=%d, its plan %d", cfg.P, pl.p)
	case cfg.Seed != pl.seed:
		return ParallelResult{}, nil, fmt.Errorf("bayes: Run config has seed %d, its plan %d", cfg.Seed, pl.seed)
	case cfg.Query.Node != pl.query.Node || cfg.Query.State != pl.query.State ||
		!maps.Equal(cfg.Query.Evidence, pl.query.Evidence):
		return ParallelResult{}, nil, errors.New("bayes: Run config asks another query than its plan")
	case cfg.MaxIters <= 0:
		return ParallelResult{}, nil, fmt.Errorf("bayes: Run needs MaxIters > 0, have %d", cfg.MaxIters)
	case !(cfg.Precision > 0):
		// NaN or at most 0: no confidence interval is ever that narrow,
		// so the run could only stop at MaxIters.
		return ParallelResult{}, nil, fmt.Errorf("bayes: Run needs Precision > 0, have %v", cfg.Precision)
	case cfg.Batch < 0:
		return ParallelResult{}, nil, fmt.Errorf("bayes: Run needs Batch >= 0 (0 picks the mode's default), have %d", cfg.Batch)
	case cfg.Mode == core.NonStrict && cfg.Age < 0:
		return ParallelResult{}, nil, fmt.Errorf("bayes: %s mode needs Age >= 0, have %d", cfg.Mode, cfg.Age)
	}

	cl, err := cluster.Build(cluster.Spec{
		Seed: cfg.Seed, Net: cfg.NetCfg, Switch: cfg.SwitchCfg,
		PVM: cfg.PVM, LoaderBps: cfg.LoaderBps, Options: cfg.Options,
	})
	if err != nil {
		return ParallelResult{}, nil, err
	}

	topo, flat, defaults := pl.topo, pl.lut, pl.defaults
	if cfg.RandomDefaults {
		defaults = make([]int, bn.N())
		for i := range defaults {
			defaults[i] = (i * 2654435761) % bn.Nodes[i].States
		}
	}

	res := ParallelResult{EdgeCut: topo.cut, HalfWidth: math.Inf(1)}
	workers := make([]*worker, cfg.P)
	// The coordinator coordinates the barrier, and its release reaches
	// the other partitions in ascending order.
	members := []int{topo.coordinator}
	for q := 0; q < cfg.P; q++ {
		if q != topo.coordinator {
			members = append(members, q)
		}
	}
	barrier := core.NewMsgBarrier(members)

	for p := 0; p < cfg.P; p++ {
		p := p
		batch := cfg.Batch
		if batch <= 0 {
			switch cfg.Mode {
			case core.Sync:
				batch = 1
			case core.Async:
				batch = 8
			case core.NonStrict:
				batch = cfg.Age
				if batch < 1 {
					batch = 1
				}
				if batch > 16 {
					batch = 16
				}
			}
		}
		w := &worker{
			cfg: &cfg, bn: bn, lut: flat, p: p, topo: topo, batch: batch,
			store:    rollback.NewStore(),
			defaults: defaults,
			pos:      make([]int, bn.N()),
			steps:    pl.steps[p],
			barrier:  barrier,
			coord:    p == topo.coordinator,

			serIters:     cfg.Series.Counter("bayes.iters"),
			serRollbacks: cfg.Series.Counter("bayes.rollbacks"),
		}
		for u := 0; u < bn.N(); u++ {
			w.pos[u] = -1
			if topo.parts[u] == p {
				w.pos[u] = len(w.owned)
				w.owned = append(w.owned, u)
			}
		}
		for _, ev := range flat.evNodes {
			if topo.parts[ev] == p {
				w.evNodes = append(w.evNodes, ev)
			}
		}
		for src := 0; src < cfg.P; src++ {
			if _, ok := topo.bundleLocs[src][p]; ok {
				w.sources = append(w.sources, src)
			}
		}
		//nscc:maporder -- sortInts below launders the iteration order
		for dst := range topo.bundleLocs[p] {
			w.targets = append(w.targets, dst)
		}
		sortInts(w.sources)
		sortInts(w.targets)
		if cfg.Mode == core.Sync {
			w.tgtPhase = make([][][]int, len(w.targets))
			for ti, dst := range w.targets {
				byPhase := make([][]int, topo.numPhases)
				for _, u := range topo.iface[p][dst] {
					ph := topo.phases[u]
					byPhase[ph] = append(byPhase[ph], u)
				}
				w.tgtPhase[ti] = byPhase
			}
			w.phaseSteps = make([][]int, topo.numPhases)
			for k, st := range w.steps {
				ph := topo.phases[st.node]
				w.phaseSteps[ph] = append(w.phaseSteps[ph], k)
			}
		}
		if w.coord {
			w.evBits = make([][]int8, cfg.P)
			w.evKnown = make([]int64, cfg.P)
		}
		workers[p] = w

		cl.Spawn("part", func(task *pvm.Task) {
			w.task = task
			w.jit = cfg.Calib.NewJitterer(task.Proc().Rng())
			w.node = cl.Node(task, core.Options{Observer: w.observe})
			for _, ls := range topo.bundleLocs {
				for _, l := range ls {
					w.node.Register(l)
				}
			}
			for _, l := range topo.progLocs {
				w.node.Register(l)
			}
			w.run(func() {
				rs := w.store.Stats()
				res.Rollbacks += rs.Rollbacks
				res.Replayed += w.replayed
				res.Gambles += rs.Gambles
				res.Conflicts += rs.Conflicts
				res.Retracts += rs.Retracts
				cl.Exit(w.node)
			})
		})
	}

	res.Stats, err = cl.Run(cfg.Mode, cfg.Age)
	if err != nil {
		return res, workers, err
	}
	cw := workers[topo.coordinator]
	res.Iters = cw.logLen
	res.ReachedPrecision = cw.stopped
	cw.advanceCount(cw.finalWatermark())
	res.Accepted = cw.cntAcc
	if cw.cntAcc > 0 {
		res.Prob = float64(cw.cntHits) / float64(cw.cntAcc)
		res.HalfWidth = metrics.ProportionCI90HalfWidth(res.Prob, int(cw.cntAcc))
	}
	return res, workers, nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// observe feeds every received DSM update into the rollback ledger and
// the coordinator's evidence-bit table.
func (w *worker) observe(locID int, u core.Update) {
	b, ok := u.Value.(*ifaceBundle)
	if !ok || b == nil {
		return // progress beacon or exit sentinel
	}
	if poisonReleased && b.refs <= 0 {
		panic("bayes: a partition observed an interface bundle after its release")
	}
	if b.Anti {
		for _, n := range b.Nodes {
			w.store.Retract(n, u.Iter)
		}
		return
	}
	for r, row := range b.Values {
		iter := b.FirstIter + int64(r)
		for i, n := range b.Nodes {
			w.store.PutActual(n, iter, int(row[i]))
		}
		if w.coord && iter < sentinelIter && r < len(b.EvOK) {
			w.setEvBit(b.Part, iter, b.EvOK[r])
		}
	}
}

func (w *worker) setEvBit(part int, iter int64, ok bool) {
	bits := w.evBits[part]
	for int64(len(bits)) <= iter {
		bits = append(bits, -1)
	}
	nb := int8(0)
	if ok {
		nb = 1
	}
	ob := bits[iter]
	bits[iter] = nb
	w.evBits[part] = bits
	if iter >= w.cntWM || ob == nb {
		return
	}
	// A rollback correction rewrote an evidence bit the incremental
	// counters already folded in (iter < cntWM guarantees every bit at
	// iter is known, so ob is 0 or 1). Only part's bit changed; if the
	// rest of the acceptance conjunction holds, swap the old
	// contribution for the new one.
	if !w.ownEvidenceOK(iter) {
		return
	}
	for q := 0; q < w.cfg.P; q++ {
		if q != w.p && q != part && w.evBits[q][iter] != 1 {
			return
		}
	}
	hit := int(w.row(iter)[w.pos[w.cfg.Query.Node]]) == w.cfg.Query.State
	if ob == 1 {
		w.cntAcc--
		if hit {
			w.cntHits--
		}
	}
	if nb == 1 {
		w.cntAcc++
		if hit {
			w.cntHits++
		}
	}
}

// run is the partition's main loop. onExit is called exactly once, as
// the partition exits.
func (w *worker) run(onExit func()) {
	cfg := w.cfg
	for t := int64(0); ; t++ {
		if w.task.NRecv(pvm.Any, doneTag) != nil {
			w.finish(onExit)
			return
		}
		if t >= cfg.MaxIters {
			w.task.Bcast(doneTag, doneMsgSize, nil)
			w.finish(onExit)
			return
		}

		if cfg.Mode == core.Sync {
			w.syncIteration(t)
		} else {
			if cfg.Mode == core.NonStrict {
				// Global_Read throttle: no peer may be more than Age
				// iterations behind before we start iteration t.
				for q := 0; q < cfg.P; q++ {
					if q != w.p {
						//nscc:tolerates-stale loc=progress -- pacing throttle only; the value is discarded and lag is repaired by rollback
						w.node.GlobalRead(w.topo.progLocs[q], t-1, cfg.Age)
					}
				}
			} else {
				w.node.Poll()
			}
			w.handleRollbacks()
			iterStart := w.task.Now()
			w.sampleIter(t)
			w.serIters.Add(w.task.Now(), 1)
			w.task.Compute(sim.DurationOf(
				cfg.Calib.IterCost(len(w.owned)).Seconds() * w.jit.Next()))
			if tr := w.task.Tracer(); tr != nil {
				tr.Emit(trace.Event{TS: int64(iterStart), Dur: int64(w.task.Now().Sub(iterStart)),
					Ph: trace.PhaseSpan, Pid: trace.PidApp, Tid: w.p, Cat: "bayes", Name: "iter",
					K1: "iter", V1: t})
			}
			if t-w.batchFrom+1 >= w.batch {
				w.flushBatch(t)
			}
		}

		// Bound the rollback ledger: records older than the correction
		// horizon (several batches plus the staleness bound) can no
		// longer conflict with anything that would still be repaired.
		if t > 0 && t%1024 == 0 {
			horizon := w.batchFrom - 8*w.batch - cfg.Age - 128
			if horizon > 0 {
				w.store.Prune(horizon)
			}
		}

		// Stopping rule. In the synchronous variant the coordinator
		// decides before it collects the barrier's arrivals, so its
		// verdict must not depend on them: preciseEnough reads only
		// state that its own DSM calls change.
		if cfg.Mode == core.Sync && cfg.P > 1 {
			stop := w.coord && (t+1)%checkEvery == 0 && w.preciseEnough()
			if w.barrier.Decide(w.task, stop) {
				w.stopped = stop
				w.finish(onExit)
				return
			}
		} else if w.coord && (t+1)%checkEvery == 0 {
			if w.preciseEnough() {
				w.stopped = true
				if cfg.P > 1 {
					w.task.Bcast(doneTag, doneMsgSize, nil)
				}
				w.finish(onExit)
				return
			}
		}
	}
}

// syncIteration runs one fully synchronous sample: topological waves
// with a phase-batched interface exchange and no gambles. All remote
// parent values are actuals, blocking-received via the phase-stamped
// bundle locations.
func (w *worker) syncIteration(t int64) {
	topo := w.topo
	out := w.newLogRow()
	for ph := 0; ph < topo.numPhases; ph++ {
		// Wait for every source's previous-phase bundle: phase-(ph-1)
		// interface values unlock phase-ph sampling. Phase-0 nodes
		// have no remote parents by construction.
		if ph > 0 {
			for _, src := range w.sources {
				//nscc:tolerates-stale loc=bundle -- age-0 phase barrier; only a -read-timeout degrade returns stale, and then the phase samples on the default and the late actual counts a conflict that sync mode never repairs
				w.node.GlobalRead(topo.bundleLocs[src][w.p], topo.syncStamp(t, ph-1), 0)
			}
		}
		ks := w.phaseSteps[ph]
		for _, k := range ks {
			out[k] = w.draw(&w.steps[k], t, out)
		}
		if len(ks) > 0 {
			w.task.Compute(sim.DurationOf(
				w.cfg.Calib.IterCost(len(ks)).Seconds() * w.jit.Next()))
		}
		// Publish this phase's interface values (plus, on the final
		// phase, the evidence bit) to every target. Every pair
		// exchanges every phase so the phase stamps stay in lockstep.
		last := ph == topo.numPhases-1
		for ti, dst := range w.targets {
			phNodes := w.tgtPhase[ti][ph]
			b := w.bundles.get(w.p, ph, phNodes, t, 1, last)
			for k, u := range phNodes {
				b.Values[0][k] = out[w.pos[u]]
			}
			if last {
				b.EvOK[0] = w.evidenceOKFor(out)
			}
			w.node.WriteSized(topo.bundleLocs[w.p][dst], topo.syncStamp(t, ph),
				bundleBytes(len(b.Nodes), 1), b)
		}
	}
	w.logLen++
	w.serIters.Add(w.task.Now(), 1)
}

// evidenceOKFor reports whether the partition's evidence nodes match in
// the given sample.
func (w *worker) evidenceOKFor(sample []int8) bool {
	for _, ev := range w.evNodes {
		if int(sample[w.pos[ev]]) != w.lut.ev[ev] {
			return false
		}
	}
	return true
}

// finish publishes exit sentinels on every location this partition
// writes, so no blocked peer waits forever, then reports exit.
func (w *worker) finish(onExit func()) {
	if w.cfg.Mode != core.Sync {
		w.flushBatch(w.logLen - 1)
	}
	for _, dst := range w.targets {
		w.node.Write(w.topo.bundleLocs[w.p][dst], sentinelIter, nil)
	}
	w.node.Write(w.topo.progLocs[w.p], sentinelIter, nil)
	onExit()
}

// sampleIter draws this partition's nodes for iteration t in the
// asynchronous modes into a new log row. With general partitions the
// peers mutually need each other's current-iteration interface values,
// so those are almost always gambles on the defaults, repaired by
// rollback when the actuals arrive (§3.2).
func (w *worker) sampleIter(t int64) {
	w.fillSample(t, w.newLogRow())
	w.logLen++
}

// fillSample computes owned values for iteration t into out; used both
// for fresh samples and rollback replays.
func (w *worker) fillSample(t int64, out []int8) {
	for k := range w.steps {
		out[k] = w.draw(&w.steps[k], t, out)
	}
}

// draw returns st's node's state in iteration t, reading its local
// parents from out and consuming its remote ones from the ledger, each
// in Parents order. The draw is replayable: the same iteration and
// parent states give the same state.
func (w *worker) draw(st *step, t int64, out []int8) int8 {
	combo := 0
	for _, sl := range st.slots {
		var v int
		if sl.at >= 0 {
			v = int(out[sl.at])
		} else {
			n := ^sl.at
			v, _ = w.store.Consume(n, t, w.defaults[n])
		}
		combo += v * sl.stride
	}
	return int8(drawRow(st.cum, st.states, combo, uniformAt(st.key, t, combo)))
}

// flushBatch publishes iterations [batchFrom, upTo] to every target and
// advances the batch window, stamping the locations with upTo.
func (w *worker) flushBatch(upTo int64) {
	if upTo < w.batchFrom {
		return
	}
	for _, dst := range w.targets {
		b := w.makeBundle(dst, w.batchFrom, upTo)
		w.node.WriteSized(w.topo.bundleLocs[w.p][dst], upTo,
			bundleBytes(len(w.topo.iface[w.p][dst]), int(upTo-w.batchFrom+1)), b)
	}
	w.node.Write(w.topo.progLocs[w.p], upTo, nil)
	w.batchFrom = upTo + 1
}

// makeBundle assembles the interface message for dst covering
// iterations [from, to], from the sample log.
func (w *worker) makeBundle(dst int, from, to int64) *ifaceBundle {
	nodes := w.topo.iface[w.p][dst]
	b := w.bundles.get(w.p, -1, nodes, from, int(to-from+1), true)
	for r, row := range b.Values {
		t := from + int64(r)
		for i, u := range nodes {
			row[i] = w.row(t)[w.pos[u]]
		}
		b.EvOK[r] = w.ownEvidenceOK(t)
	}
	return b
}

// makeAnti assembles a single-iteration antimessage for dst.
func (w *worker) makeAnti(dst int) *ifaceBundle {
	b := w.bundles.get(w.p, -1, w.topo.iface[w.p][dst], 0, 0, false)
	b.Anti = true
	return b
}

// handleRollbacks repairs every dirtied iteration (oldest first). The
// paper's implementation is synchronization via rollback [2]: on a
// wrong gamble the processor restores the state at the dirty iteration
// and replays forward to the present, so one rollback costs work
// proportional to how far the processor had strayed ahead. We charge
// that Time-Warp replay cost (from the oldest dirty iteration to the
// log head, once per repair pass); because logic-sampling iterations
// are statistically independent, only the dirtied iterations' values
// actually change, which keeps the estimator exact while the cost model
// stays faithful. Bounding the stray distance — Global_Read's job — is
// what bounds the cost of each rollback (§3.2).
func (w *worker) handleRollbacks() {
	for w.store.HasDirty() {
		dirty := w.store.Dirty()
		// Each dirty iteration is a straggler: standard Time Warp
		// restores the state at the straggler and re-executes forward,
		// so every rollback costs work proportional to the distance the
		// processor had strayed past it. (A lazily-batched repair would
		// be cheaper, but "costly rollbacks" — §3.2 — is precisely the
		// behaviour of the standard technique the paper cites.)
		for _, d := range dirty {
			if d >= w.logLen {
				continue
			}
			if span := w.logLen - d; span > 0 {
				w.replayed += span
				w.serRollbacks.Add(w.task.Now(), 1)
				if tr := w.task.Tracer(); tr != nil {
					tr.Emit(trace.Event{TS: int64(w.task.Now()), Ph: trace.PhaseInstant,
						Pid: trace.PidApp, Tid: w.p, Cat: "bayes", Name: "rollback",
						K1: "iter", V1: d, K2: "span", V2: span})
				}
				w.task.Compute(sim.DurationOf(
					w.cfg.Calib.IterCost(len(w.owned)).Seconds() * float64(span)))
			}
		}
		for _, d := range dirty {
			if d >= w.logLen {
				// A value for an iteration not yet computed arrived
				// early; nothing to repair.
				w.store.BeginRollback(d)
				continue
			}
			w.rowScratch = append(w.rowScratch[:0], w.row(d)...)
			old := w.rowScratch
			w.store.BeginRollback(d)
			w.fillSample(d, w.row(d))
			if w.coord && d < w.cntWM {
				w.recountRepair(d, old)
			}

			// Corrections for changed interface values / evidence bits
			// — only for iterations already published; unsent ones go
			// out (already repaired) with their batch.
			if d >= w.batchFrom {
				continue
			}
			for _, dst := range w.targets {
				changed := false
				for _, u := range w.topo.iface[w.p][dst] {
					if w.row(d)[w.pos[u]] != old[w.pos[u]] {
						changed = true
						break
					}
				}
				if dst == w.topo.coordinator && !changed {
					changed = w.evidenceChanged(old, w.row(d))
				}
				if changed {
					sz := bundleBytes(len(w.topo.iface[w.p][dst]), 1)
					if tr := w.task.Tracer(); tr != nil {
						tr.Emit(trace.Event{TS: int64(w.task.Now()), Ph: trace.PhaseInstant,
							Pid: trace.PidApp, Tid: w.p, Cat: "bayes", Name: "anti",
							K1: "iter", V1: d, K2: "dst", V2: int64(dst)})
					}
					w.node.WriteSized(w.topo.bundleLocs[w.p][dst], d, sz, w.makeAnti(dst))
					w.node.WriteSized(w.topo.bundleLocs[w.p][dst], d, sz, w.makeBundle(dst, d, d))
				}
			}
		}
	}
}

func (w *worker) evidenceChanged(old, repaired []int8) bool {
	for _, ev := range w.evNodes {
		if old[w.pos[ev]] != repaired[w.pos[ev]] {
			return true
		}
	}
	return false
}

// ownEvidenceOK reports whether this partition's evidence nodes matched
// in iteration t.
func (w *worker) ownEvidenceOK(t int64) bool {
	return w.evidenceOKFor(w.row(t))
}

// finalWatermark is the highest iteration for which the coordinator has
// complete information (its own sample plus every partition's evidence
// bit). Evidence bits never revert to unknown, so each partition's
// known prefix only grows and the cached evKnown positions let the scan
// resume where it last stopped instead of rescanning from zero.
func (w *worker) finalWatermark() int64 {
	wm := w.logLen
	for q := 0; q < w.cfg.P; q++ {
		if q == w.p {
			continue
		}
		bits := w.evBits[q]
		k := w.evKnown[q]
		for k < int64(len(bits)) && bits[k] >= 0 {
			k++
		}
		w.evKnown[q] = k
		if k < wm {
			wm = k
		}
	}
	return wm
}

// contribAt reports iteration t's stopping-rule contribution from the
// current log row and evidence bits. t must be below cntWM's target
// watermark, so every part's bit at t is known.
func (w *worker) contribAt(t int64) (acc, hit bool) {
	if !w.ownEvidenceOK(t) {
		return false, false
	}
	for q := 0; q < w.cfg.P; q++ {
		if q != w.p && w.evBits[q][t] != 1 {
			return false, false
		}
	}
	return true, int(w.row(t)[w.pos[w.cfg.Query.Node]]) == w.cfg.Query.State
}

// advanceCount folds iterations [cntWM, wm) into the incremental
// counters. Together with the setEvBit/recountRepair adjustments this
// keeps (cntHits, cntAcc) equal to a full recount of [0, cntWM) at all
// times, so a run's final tally is read from them.
//
//nscc:commutative
func (w *worker) advanceCount(wm int64) {
	for t := w.cntWM; t < wm; t++ {
		acc, hit := w.contribAt(t)
		if acc {
			w.cntAcc++
			if hit {
				w.cntHits++
			}
		}
	}
	if wm > w.cntWM {
		w.cntWM = wm
	}
}

// recountRepair fixes the incremental counters after a rollback repair
// rewrote already-counted iteration d (old is the pre-repair row; the
// evidence bits are unchanged by a local repair).
func (w *worker) recountRepair(d int64, old []int8) {
	for q := 0; q < w.cfg.P; q++ {
		if q != w.p && w.evBits[q][d] != 1 {
			return // not accepted before or after; nothing to adjust
		}
	}
	qn := w.pos[w.cfg.Query.Node]
	st := w.cfg.Query.State
	accB := w.evidenceOKFor(old)
	accA := w.evidenceOKFor(w.row(d))
	if accB {
		w.cntAcc--
		if int(old[qn]) == st {
			w.cntHits--
		}
	}
	if accA {
		w.cntAcc++
		if int(w.row(d)[qn]) == st {
			w.cntHits++
		}
	}
}

// preciseEnough evaluates the paper's stopping rule (90% CI half-width
// at or below the precision target) on the information available now.
// It uses the incremental counters, so each check costs only the
// iterations finalized since the last one.
func (w *worker) preciseEnough() bool {
	w.advanceCount(w.finalWatermark())
	if w.cntAcc < 2 {
		return false
	}
	p := float64(w.cntHits) / float64(w.cntAcc)
	return metrics.ProportionCI90HalfWidth(p, int(w.cntAcc)) <= w.cfg.Precision
}

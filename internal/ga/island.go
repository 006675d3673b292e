package ga

import (
	"errors"
	"fmt"
	"math"

	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
	"nscc/internal/trace"
)

// doneTag carries the "a subpopulation has converged past the target"
// broadcast that terminates asynchronous and Global_Read runs.
const doneTag = 9000

// doneMsgSize is the network size of a termination notice.
const doneMsgSize = 8

// sentinelIter is the iteration stamp of the final write an exiting
// island publishes so that no peer ever blocks on its location again.
const sentinelIter int64 = 1 << 60

// Topology names the migration pattern of the island GA (§3.1: "it is
// controlled by several parameters: interval, rate, and topology").
type Topology int

const (
	// Broadcast is the paper's configuration: every island sends its
	// best N/2 to every other island each migration (empirically the
	// fastest-converging island layout per the Cantu-Paz survey [3]).
	Broadcast Topology = iota
	// Ring sends migrants only to the next island (i+1 mod P): far
	// less traffic, slower mixing.
	Ring
	// GossipRing exchanges migrants push-pull with the two ring
	// neighbors (i±1): the sparsest connected overlay, diameter P/2.
	GossipRing
	// GossipRandom exchanges migrants over a ring backbone plus random
	// chords (symmetric degree ~4, logarithmic diameter) — the classic
	// gossip overlay, and the recommended topology at 1000+ islands.
	GossipRandom
	// GossipClustered exchanges migrants within dense communities
	// joined by single bridges — the overlay shape of a
	// rack-partitioned cluster.
	GossipClustered
)

func (t Topology) String() string {
	switch t {
	case Broadcast:
		return "broadcast"
	case Ring:
		return "ring"
	case GossipRing:
		return "gossip-ring"
	case GossipRandom:
		return "gossip-random"
	case GossipClustered:
		return "gossip-clustered"
	default:
		return "Topology(?)"
	}
}

// IslandConfig describes one parallel island-GA run.
type IslandConfig struct {
	Fn   *functions.Function
	Par  Params // per-deme parameters (Par.N is the deme size)
	P    int    // number of islands / processors
	Mode core.Mode
	Age  int64 // Global_Read staleness bound (NonStrict mode)

	// Topology selects the migration pattern (default Broadcast, the
	// paper's setting).
	Topology Topology
	// Interval migrates every Interval generations (0 means the default
	// of 1, the paper's setting; a negative one is an error). With
	// Global_Read, ages are still measured in generations, so an age
	// below Interval-1 blocks until the next migration round.
	Interval int64

	// FixedGens is the generation count for Sync mode (the paper runs
	// the synchronous program for a fixed 1000 generations).
	FixedGens int64
	// Target is the population-average objective value asynchronous and
	// NonStrict runs must converge to (the synchronous run's final
	// average, the paper's solution-quality metric, §4.3/§5.1.1); a run
	// stops as soon as any subpopulation's average fitness reaches it.
	// Average fitness, unlike best-so-far, does not saturate at the
	// encoding's floor until the whole population has converged, so it
	// is the meaningful "converged further than the synchronous
	// version" test.
	Target float64
	// MinGens is the minimum generation count for asynchronous and
	// NonStrict runs — the synchronous program's budget. The paper's
	// comparison runs the competitors "for enough generations so that
	// the subpopulation converged further (better) than the synchronous
	// version"; with equal budgets and the quality test, a variant
	// whose staleness hurts convergence pays in extra generations,
	// never in fewer.
	MinGens int64
	// MaxGens caps asynchronous/NonStrict runs that fail to reach the
	// target (the paper observes fully asynchronous GAs may need far
	// more generations under stale migration).
	MaxGens int64

	// DynamicAge enables the paper's future-work extension (§6):
	// instead of a fixed staleness bound, each island adapts its age at
	// run time — multiplicative increase while Global_Read blocks
	// (stale tolerance is too tight for current conditions), additive
	// decrease while reads are satisfied immediately (tolerance can be
	// tightened for fresher migrants). Age is the starting value.
	DynamicAge bool

	Seed     int64
	Calib    Calibration
	NodeOpts core.Options

	// Net overrides the bus network model (nil = netsim.DefaultConfig()).
	Net *netsim.Config
	// Switch, if set, runs on an SP2-style crossbar switch instead of
	// the shared Ethernet.
	Switch *netsim.SwitchConfig
	// Hier, if set, runs on the hierarchical rack/spine fabric —
	// per-rack shared buses behind store-and-forward uplinks — the
	// interconnect a 1000+-island run needs (a single shared bus
	// saturates at a few tens of chattering islands). At most one of
	// Net, Switch and Hier may be set.
	Hier *netsim.HierConfig
	// LoaderBps, if positive, runs the background network loader at
	// this offered bit rate on two extra nodes (§5.2).
	LoaderBps float64
	// PVM overrides the messaging overheads (nil = pvm.DefaultConfig()).
	PVM *pvm.Config

	// Options are the run's fault and observation settings. A series
	// set also records gauge "ga.avg_fitness" per generation, and a
	// tracer one span per generation.
	cluster.Options
}

// IslandResult reports one parallel run.
type IslandResult struct {
	Best          float64 // best objective ever seen, over all islands
	FinalBest     float64 // best objective in the final populations (quality target for async/GR runs)
	Avg           float64 // mean of final per-island population averages
	Gens          []int64 // generations completed per island
	OptimumFound  bool
	ReachedTarget bool // false if the run hit MaxGens without converging

	cluster.Stats
}

// RunIsland executes one island-GA configuration on a fresh simulated
// cluster and reports the result. The run is deterministic in cfg.Seed.
// An impossible configuration (no function, no processors, a deme of
// fewer than 2, no generation budget for the mode, a negative
// migration interval, a negative Global_Read age, which no read could
// ever satisfy, or a cluster setting cluster.Build rejects) is an
// error.
//
// The run's islands share one deme scratch and one migrant sorter, and
// each reads its sources' migrant blocks where they arrive. Both rest on
// two invariants: no deme method, and no step between an island's last
// migrant read and its ReplaceWorst, yields to the engine; and nothing
// writes or recycles a block after BestK returns it.
func RunIsland(cfg IslandConfig) (IslandResult, error) {
	switch {
	case cfg.Fn == nil:
		return IslandResult{}, errors.New("ga: RunIsland needs a function")
	case cfg.P < 1:
		return IslandResult{}, fmt.Errorf("ga: RunIsland needs at least 1 processor, have %d", cfg.P)
	case cfg.Par.N < 2:
		return IslandResult{}, fmt.Errorf("ga: RunIsland needs a deme of at least 2 individuals, have %d", cfg.Par.N)
	case cfg.Mode == core.Sync && cfg.FixedGens <= 0:
		return IslandResult{}, fmt.Errorf("ga: Sync mode needs FixedGens > 0, have %d", cfg.FixedGens)
	case cfg.Mode != core.Sync && cfg.MaxGens <= 0:
		return IslandResult{}, fmt.Errorf("ga: %s mode needs MaxGens > 0, have %d", cfg.Mode, cfg.MaxGens)
	case cfg.Interval < 0:
		return IslandResult{}, fmt.Errorf("ga: RunIsland needs Interval >= 0 (0 migrates every generation), have %d", cfg.Interval)
	case cfg.Mode == core.NonStrict && cfg.Age < 0:
		return IslandResult{}, fmt.Errorf("ga: %s mode needs Age >= 0, have %d", cfg.Mode, cfg.Age)
	}
	// Shared locations: island i's migrant block, read by the islands
	// the topology wires it to (sources[i]: whose blocks island i
	// reads; the gossip overlays make the relation symmetric).
	sources, readers, err := topologySources(cfg.Topology, cfg.P, cfg.Seed)
	if err != nil {
		return IslandResult{}, err
	}
	cl, err := cluster.Build(cluster.Spec{
		Seed: cfg.Seed, Net: cfg.Net, Switch: cfg.Switch, Hier: cfg.Hier,
		PVM: cfg.PVM, LoaderBps: cfg.LoaderBps, Options: cfg.Options,
	})
	if err != nil {
		return IslandResult{}, err
	}
	serFit := cfg.Series.Gauge("ga.avg_fitness")

	interval := cfg.Interval
	if interval == 0 {
		interval = 1
	}
	k := cfg.Par.N / 2
	locs := make([]*core.Location, cfg.P)
	members := make([]int, cfg.P)
	for i := 0; i < cfg.P; i++ {
		members[i] = i
		locs[i] = &core.Location{
			ID:      i,
			Name:    "migrants",
			Writer:  i,
			Readers: readers[i],
			Size:    MigrantBlockBytes(cfg.Fn, k),
		}
	}
	barrier := core.NewMsgBarrier(members)

	// One deme scratch and one migrant sorter serve every island, which
	// uses them only where it cannot yield (see above). They live in
	// this call, never at package level, so concurrent runs do not
	// share them.
	sc := newDemeScratch(cfg.Fn, cfg.Par)
	var poolSort poolSorter

	res := IslandResult{
		Gens:          make([]int64, cfg.P),
		Best:          math.Inf(1),
		FinalBest:     math.Inf(1),
		ReachedTarget: cfg.Mode == core.Sync,
	}
	finalAvgs := make([]float64, cfg.P)

	for i := 0; i < cfg.P; i++ {
		i := i
		cl.Spawn("island", func(task *pvm.Task) {
			// Register only the blocks this island writes or reads: a
			// node serves and names just those, and a 1000-island cell
			// would otherwise make a million registrations.
			node := cl.Node(task, cfg.NodeOpts)
			node.Register(locs[i])
			for _, j := range sources[i] {
				node.Register(locs[j])
			}
			deme := newDemeOn(sc, cfg.Fn, cfg.Par, task.Proc().Rng())
			jit := cfg.Calib.NewJitterer(task.Proc().Rng())
			age := cfg.Age
			var lastBlocked int64
			// The migrant blocks one round's reads return, read where
			// they arrive: a block is kept across the round's later
			// reads, which may yield, and that is safe only because
			// nothing writes or recycles a block BestK returned.
			blocks := make([][]Individual, 0, len(sources[i]))

			finish := func() {
				res.Gens[i] = deme.Gen()
				finalAvgs[i] = deme.AvgFit()
				if b := deme.Best().Fit; b < res.Best {
					res.Best = b
				}
				if b := deme.CurrentBest(); b < res.FinalBest {
					res.FinalBest = b
				}
				cl.Exit(node)
			}

			for gen := int64(0); ; gen++ {
				genStart := task.Now()
				evals := deme.EvaluateAll()
				cost := cfg.Calib.GenCost(cfg.Fn, evals, deme.Size())
				task.Compute(sim.DurationOf(cost.Seconds() * jit.Next()))

				if cfg.Mode == core.Sync {
					if gen >= cfg.FixedGens {
						finish()
						return
					}
				} else {
					done := task.NRecv(pvm.Any, doneTag) != nil
					reached := gen >= cfg.MinGens && deme.AvgFit() <= cfg.Target
					if reached {
						res.ReachedTarget = true
					}
					if done || reached || gen >= cfg.MaxGens {
						// Unblock everyone, tell everyone, leave.
						node.Write(locs[i], sentinelIter, []Individual(nil))
						if !done {
							task.Bcast(doneTag, doneMsgSize, nil)
						}
						finish()
						return
					}
				}

				// Migration round: publish my best k, incorporate the
				// blocks of my topological sources.
				if gen%interval == 0 {
					node.Write(locs[i], gen, deme.BestK(k))
					for _, j := range sources[i] {
						switch cfg.Mode {
						case core.Sync:
							// The checked assertion matters under a
							// ReadTimeout: a degraded read can return a
							// zero Update whose Value is nil.
							u := node.GlobalRead(locs[j], gen, 0)
							if vs, ok := u.Value.([]Individual); ok {
								blocks = append(blocks, vs)
							}
						case core.Async:
							//nscc:tolerates-stale loc=migrants -- stale migrants only delay selection pressure (§4.2.1); ReplaceWorst is order-free
							if u, ok := node.Read(locs[j]); ok {
								if vs, ok := u.Value.([]Individual); ok {
									blocks = append(blocks, vs)
								}
							}
						case core.NonStrict:
							//nscc:tolerates-stale loc=migrants -- the Global_Read age bound is the tolerance contract; simrace classifies the residue
							u := node.GlobalRead(locs[j], gen, age)
							if vs, ok := u.Value.([]Individual); ok {
								blocks = append(blocks, vs)
							}
						}
					}
					deme.ReplaceWorst(poolSort.bestK(blocks, k))
					// Drop the views, so that a block the node's buffer
					// has since replaced is not kept alive here.
					clear(blocks)
					blocks = blocks[:0]
				}

				if cfg.DynamicAge && cfg.Mode == core.NonStrict {
					if b := node.Stats().BlockedReads; b > lastBlocked {
						lastBlocked = b
						age *= 2
						if age > 60 {
							age = 60
						}
						if age == 0 {
							age = 1
						}
					} else if age > 0 {
						age--
					}
				}

				serFit.Add(task.Now(), deme.AvgFit())
				if tr := task.Tracer(); tr != nil {
					// One span per generation's compute+migration work
					// (barrier waiting, in Sync mode, stays outside it).
					tr.Emit(trace.Event{TS: int64(genStart), Dur: int64(task.Now().Sub(genStart)),
						Ph: trace.PhaseSpan, Pid: trace.PidApp, Tid: i, Cat: "ga", Name: "gen",
						K1: "gen", V1: gen})
				}
				if cfg.Mode == core.Sync {
					barrier.Wait(task)
				}
				deme.NextGeneration()
			}
		})
	}

	res.Stats, err = cl.Run(cfg.Mode, cfg.Age)
	if err != nil {
		return res, err
	}
	s := 0.0
	for _, a := range finalAvgs {
		s += a
	}
	res.Avg = s / float64(cfg.P)
	res.OptimumFound = cfg.Fn.OptimumFound(res.Best)
	return res, nil
}

package main

import (
	"fmt"
	"math/rand"
	"testing"

	"nscc/internal/bayes"
	"nscc/internal/benchio"
	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/graph"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/rollback"
	"nscc/internal/sim"
)

// microNames are the layer micros in report order. Each times calls
// into one layer's public functions; ns/op and allocs/op are the
// minimum of benchio.DefaultMicroReps samples.
var microNames = []string{
	"sim.sleep", "sim.waitwake", "sim.hold100k",
	"netsim.bus_unicast", "netsim.bus_multicast16", "netsim.switch_unicast", "netsim.hier_multicast",
	"pvm.pingpong", "pvm.bcast1000",
	"core.gr_hit", "core.gr_block",
	"ga.deme_gen", "ga.island_short",
	"bayes.sample_iter", "rollback.cycle", "graph.superstep20k",
}

// standardMicro maps a micro to the benchio.StandardMicros entry it
// reuses.
var standardMicro = map[string]string{
	"sim.sleep":       "sim.SleepLoop",
	"sim.hold100k":    "sim.QueueHold100k",
	"pvm.pingpong":    "pvm.PingPong",
	"pvm.bcast1000":   "pvm.Bcast1000",
	"ga.island_short": "ga.IslandShortRun",
}

// microResult is one micro's per-op cost.
type microResult struct {
	Name   string  `json:"name"`
	Ns     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
}

// runMicros times every micro. The benchmark time per sample comes from
// the testing package's -test.benchtime flag, set by the caller.
func runMicros() ([]microResult, error) {
	std := map[string]func(*testing.B){}
	for _, m := range benchio.StandardMicros() {
		std[m.Name] = m.Fn
	}
	// Kernels measured per inner iteration run a fixed number of them
	// per op; ns/op and allocs/op are divided by it.
	perOp := map[string]float64{
		"bayes.sample_iter":  sampleIters,
		"graph.superstep20k": supersteps,
	}
	g, err := graph.Random(20000, 80000, 1)
	if err != nil {
		return nil, err
	}
	own := map[string]func(*testing.B){
		"sim.waitwake": microWaitWake,
		"netsim.bus_unicast": func(b *testing.B) {
			microUnicast(b, netsim.New(sim.NewEngine(1), netsim.DefaultConfig()))
		},
		"netsim.switch_unicast": func(b *testing.B) {
			microUnicast(b, netsim.NewSwitch(sim.NewEngine(1), netsim.DefaultSwitchConfig()))
		},
		"netsim.bus_multicast16": microBusMulticast16,
		"netsim.hier_multicast":  microHierMulticast,
		"core.gr_hit":            microGRHit,
		"core.gr_block":          microGRBlock,
		"ga.deme_gen":            microDemeGen,
		"bayes.sample_iter":      microSampleIter,
		"rollback.cycle":         microRollbackCycle,
		"graph.superstep20k":     func(b *testing.B) { microSuperstep(b, g) },
	}
	snap := benchio.NewSnapshot("layers", 1)
	for _, name := range microNames {
		fn := own[name]
		if s, ok := standardMicro[name]; ok {
			fn = std[s]
		}
		if fn == nil {
			return nil, fmt.Errorf("micro %s: no benchmark body", name)
		}
		snap.RunMicroReps(name, fn, benchio.DefaultMicroReps)
	}
	out := make([]microResult, len(snap.Micro))
	for i, m := range snap.Micro {
		div := perOp[m.Name]
		if div == 0 {
			div = 1
		}
		out[i] = microResult{Name: m.Name, Ns: m.NsPerOp / div, Allocs: m.AllocsOp / div}
	}
	return out, nil
}

// microWaitWake is one round trip between two processes handing control
// back and forth through a pair of WaitLists.
func microWaitWake(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	var ping, pong sim.WaitList
	eng.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			pong.WakeOne()
			ping.Wait(p)
		}
		pong.WakeOne()
	})
	eng.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ping.WakeOne()
			pong.Wait(p)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// driveFabric attaches n nodes and runs a closed loop on the fabric:
// send issues one op, and the next op starts when the current one's
// deliveries (per of them) have all arrived.
func driveFabric(b *testing.B, f netsim.Fabric, n, per int, send func()) {
	delivered := 0
	for i := 0; i < n; i++ {
		f.Attach(fmt.Sprintf("n%d", i), func(int, interface{}, sim.Time) {
			delivered++
			if delivered%per == 0 && delivered/per < b.N {
				send()
			}
		})
	}
	f.Engine().Schedule(0, send)
	b.ResetTimer()
	if err := f.Engine().Run(); err != nil {
		b.Fatal(err)
	}
}

// microUnicast is one 64-byte frame from node 0 to node 1, delivered.
func microUnicast(b *testing.B, f netsim.Fabric) {
	b.ReportAllocs()
	driveFabric(b, f, 2, 1, func() { f.Unicast(0, 1, 64, nil, nil) })
}

// microBusMulticast16 is one frame from node 0 to 16 peers on the bus.
func microBusMulticast16(b *testing.B) {
	b.ReportAllocs()
	f := netsim.New(sim.NewEngine(1), netsim.DefaultConfig())
	dsts := make([]int, 16)
	for i := range dsts {
		dsts[i] = i + 1
	}
	driveFabric(b, f, 17, len(dsts), func() { f.Multicast(0, dsts, 64, nil, nil) })
}

// microHierMulticast is one gossip round's frame on the 1000-node
// rack/spine fabric: node 0 to two ring neighbours and two chords in
// other racks.
func microHierMulticast(b *testing.B) {
	b.ReportAllocs()
	f := netsim.NewHier(sim.NewEngine(1), netsim.DefaultHierConfig())
	dsts := []int{1, 999, 250, 750}
	driveFabric(b, f, 1000, len(dsts), func() { f.Multicast(0, dsts, 64, nil, nil) })
}

// grMachine builds a pooled two-task machine on the default bus.
func grMachine() (*sim.Engine, *pvm.Machine, *core.Location) {
	eng := sim.NewEngine(1)
	cfg := pvm.DefaultConfig()
	cfg.Pooling = true
	m := pvm.NewMachine(eng, netsim.New(eng, netsim.DefaultConfig()), cfg)
	loc := &core.Location{ID: 1, Name: "bench", Writer: 1, Readers: []int{0}, Size: 64}
	return eng, m, loc
}

// microGRHit is one Global_Read served from the local cache.
func microGRHit(b *testing.B) {
	b.ReportAllocs()
	eng, m, loc := grMachine()
	m.Spawn("reader", func(t *pvm.Task) {
		n := core.NewNode(t, core.Options{})
		n.Register(loc)
		n.GlobalRead(loc, 0, 0) // wait for the one value
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.GlobalRead(loc, 10, 10)
		}
	})
	m.Spawn("writer", func(t *pvm.Task) {
		n := core.NewNode(t, core.Options{})
		n.Register(loc)
		n.Write(loc, 0, 1)
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// microGRBlock is one Global_Read at age 0 that blocks until the
// writer's next iteration arrives over the bus, then wakes.
func microGRBlock(b *testing.B) {
	b.ReportAllocs()
	eng, m, loc := grMachine()
	m.Spawn("reader", func(t *pvm.Task) {
		n := core.NewNode(t, core.Options{})
		n.Register(loc)
		for i := 0; i < b.N; i++ {
			n.GlobalRead(loc, int64(i), 0)
		}
	})
	m.Spawn("writer", func(t *pvm.Task) {
		n := core.NewNode(t, core.Options{})
		n.Register(loc)
		for i := 0; i < b.N; i++ {
			t.Compute(sim.Millisecond)
			n.Write(loc, int64(i), i)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// microDemeGen is one generation of an F1 deme: selection, crossover
// and mutation, then evaluation of the changed individuals.
func microDemeGen(b *testing.B) {
	b.ReportAllocs()
	d := ga.NewDeme(functions.F1, ga.DeJongParams(), rand.New(rand.NewSource(1)))
	d.EvaluateAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NextGeneration()
		d.EvaluateAll()
	}
}

// sampleIters is the fixed logic-sampling run microSampleIter times;
// the precision target is unreachable, so every call runs all of them.
const sampleIters = 20000

// microSampleIter is serial logic sampling on Table 2's network A.
func microSampleIter(b *testing.B) {
	b.ReportAllocs()
	bn := bayes.Table2Networks()[0]
	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := bayes.InferSerial(bn, q, 1e-9, 1, calib, sampleIters); r.Iters != sampleIters {
			b.Fatalf("InferSerial ran %d iterations, want %d", r.Iters, sampleIters)
		}
	}
}

// microRollbackCycle is one iteration's ledger traffic for four remote
// interface nodes: a gamble, a conflicting actual, the rollback, the
// replayed consume, and pruning every 16 iterations.
func microRollbackCycle(b *testing.B) {
	b.ReportAllocs()
	s := rollback.NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := int64(i)
		for node := 0; node < 4; node++ {
			s.Consume(node, it, 0)
			s.PutActual(node, it, 1)
		}
		s.BeginRollback(it)
		for node := 0; node < 4; node++ {
			s.Consume(node, it, 0)
		}
		if i%16 == 15 {
			s.Prune(it - 16)
		}
	}
}

// supersteps is the fixed sequential PageRank length microSuperstep
// times; eps 1e-300 is never met, so every call runs all of them.
const supersteps = 5

// microSuperstep is sequential PageRank supersteps over a 20k-vertex,
// 100k-edge random graph.
func microSuperstep(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	calib := graph.DefaultCalibration()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := graph.RunSequential(g, graph.PageRank, 1e-300, supersteps, calib); r.Iters != supersteps {
			b.Fatalf("RunSequential ran %d supersteps, want %d", r.Iters, supersteps)
		}
	}
}

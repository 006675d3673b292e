package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nscc/internal/metrics"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// seriesFabric is a fabric whose windowed series can be recorded; every
// netsim fabric is one.
type seriesFabric interface {
	Fabric
	SetSeries(*tseries.Set)
}

// sendOp is one fabric call of a send script. Its payload is its index
// in the script.
type sendOp struct {
	at   sim.Time
	src  int
	dsts []int
	size int
}

// delivery is one line of a run's delivery log.
type delivery struct {
	at       sim.Time
	src, dst int
	payload  int
	sentAt   sim.Time
}

// sendRun is everything one play of a send script can be told apart by.
type sendRun struct {
	log    []delivery
	stats  Stats
	series []metrics.SeriesSummary
	events []trace.Event
}

// playSends plays ops over nodes on a fresh engine and fabric, with a
// trace recorder and 1 ms series attached. A single-destination call,
// and the reply some deliveries send back from inside their handler
// (payload -1-id), goes through Unicast, or through a one-element
// Multicast when viaMulticast is set; calls to several destinations go
// through Multicast in both plays. Every onWire callback records an
// "on_wire" instant in the trace.
func playSends(newFabric func(*sim.Engine) seriesFabric, nodes int, ops []sendOp, viaMulticast bool) sendRun {
	eng := sim.NewEngine(7)
	rec := trace.NewRecorder()
	eng.SetTracer(rec)
	f := newFabric(eng)
	set := tseries.NewSet(sim.Millisecond)
	f.SetSeries(set)
	var run sendRun
	send := func(src int, dsts []int, size, id int) {
		onWire := func() {
			rec.Emit(trace.Event{TS: int64(eng.Now()), Ph: trace.PhaseInstant, Tid: src,
				Cat: "test", Name: "on_wire", K1: "id", V1: int64(id)})
		}
		switch {
		case len(dsts) != 1:
			f.Multicast(src, dsts, size, id, onWire)
		case viaMulticast:
			f.Multicast(src, []int{dsts[0]}, size, id, onWire)
		default:
			f.Unicast(src, dsts[0], size, id, onWire)
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		f.Attach("n", func(src int, payload interface{}, sentAt sim.Time) {
			id := payload.(int)
			run.log = append(run.log, delivery{eng.Now(), src, n, id, sentAt})
			if id >= 0 && (id+n)%3 == 0 {
				send(n, []int{src}, 100, -1-id)
			}
		})
	}
	for i, op := range ops {
		i, op := i, op
		eng.Schedule(op.at, func() { send(op.src, op.dsts, op.size, i) })
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	run.stats, run.series, run.events = f.Stats(), set.Summaries(), rec.Events()
	return run
}

// genSends draws a script of 60 calls over nodes, most of them to one
// destination, offered on a 100 us grid so calls often meet a busy
// link.
func genSends(seed int64, nodes int) []sendOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]sendOp, 60)
	for i := range ops {
		src := r.Intn(nodes)
		var dsts []int
		if r.Intn(10) < 7 {
			dsts = []int{(src + 1 + r.Intn(nodes-1)) % nodes}
		} else {
			dsts = r.Perm(nodes)[:2+r.Intn(nodes-1)]
		}
		ops[i] = sendOp{at: sim.Time(r.Intn(40)) * sim.Time(100*sim.Microsecond),
			src: src, dsts: dsts, size: r.Intn(1500)}
	}
	return ops
}

// firstDiff names the first differing line of two logs.
func firstDiff[T any](what string, a, b []T) error {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Errorf("%s line %d: Unicast %+v, Multicast to one %+v", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%s: Unicast has %d lines, Multicast to one %d", what, len(a), len(b))
	}
	return nil
}

// TestUnicastMatchesMulticastToOne plays seeded send scripts on the
// lossy contended bus, the switch and the lossy rack/spine fabric
// (racks of 3, so most destinations are in another rack) twice each:
// once with every single destination sent through Unicast, once through
// a one-element Multicast. The deliveries (time, source, destination,
// payload, send time), the counters, the series and the trace, onWire
// instants included, must be equal: a fabric has one transmission path,
// and Unicast is Multicast to one node.
func TestUnicastMatchesMulticastToOne(t *testing.T) {
	const nodes = 10
	bus := Config{BandwidthBps: 10e6, PropDelay: 50 * sim.Microsecond, FrameOverhead: 100,
		ContentionBackoff: 0.5, LossProb: 0.2}
	fabrics := []struct {
		name string
		new  func(*sim.Engine) seriesFabric
	}{
		{"bus", func(eng *sim.Engine) seriesFabric { return New(eng, bus) }},
		{"switch", func(eng *sim.Engine) seriesFabric {
			return NewSwitch(eng, SwitchConfig{LinkBandwidthBps: 8e6, Latency: 100 * sim.Microsecond, FrameOverhead: 64})
		}},
		{"hier", func(eng *sim.Engine) seriesFabric {
			return NewHier(eng, HierConfig{RackSize: 3, Bus: bus, UplinkBandwidthBps: 80e6, SpineLatency: 100 * sim.Microsecond})
		}},
	}
	for _, fab := range fabrics {
		var dropped, queued int64
		for seed := int64(1); seed <= 20; seed++ {
			ops := genSends(seed, nodes)
			uni := playSends(fab.new, nodes, ops, false)
			multi := playSends(fab.new, nodes, ops, true)
			err := firstDiff("delivery log", uni.log, multi.log)
			if err == nil {
				err = firstDiff("trace", uni.events, multi.events)
			}
			if err == nil && uni.stats != multi.stats {
				err = fmt.Errorf("stats: Unicast %+v, Multicast to one %+v", uni.stats, multi.stats)
			}
			if err == nil && !reflect.DeepEqual(uni.series, multi.series) {
				err = fmt.Errorf("series: Unicast %+v, Multicast to one %+v", uni.series, multi.series)
			}
			if err != nil {
				t.Fatalf("%s, seed %d: %v", fab.name, seed, err)
			}
			dropped += uni.stats.Dropped
			queued += int64(uni.stats.QueueDelay)
		}
		// The scripts must reach the paths a divergence would hide in:
		// loss draws where the fabric loses frames, and queuing.
		if queued == 0 || fab.name != "switch" && dropped == 0 {
			t.Fatalf("%s: degenerate scripts: %d drops, %d ns of queuing", fab.name, dropped, queued)
		}
	}
}

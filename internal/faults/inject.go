package faults

import (
	"math/rand"

	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/trace"
)

// Stats counts what the injector did to the traffic that passed
// through it, by fault class.
type Stats struct {
	CrashDrops     int64 // frames lost to a crashed sender or receiver
	PartitionDrops int64 // frames lost to an active partition
	LossDrops      int64 // frames lost to a loss burst
	Delayed        int64 // frames given extra latency (spike or reorder)
	Duplicated     int64 // frames delivered a second time
}

// Shared is a payload that counts its deliveries, each of which holds
// one share of it; a pooled pvm.Message is one. The injector takes one
// more share of a frame it duplicates, before either delivery, so the
// payload is not recycled while its second delivery is on the way.
type Shared interface {
	Retain(n int)
}

// Injector applies a Plan to an existing fabric. It implements
// netsim.Fabric by delegating transmission to the wrapped fabric and
// intercepting every delivery: each Attach handler is wrapped so that
// at delivery time the injector may drop the frame (crash, partition,
// loss burst), hold it back (delay spike, reorder), or deliver it
// twice (duplication).
//
// All fault logic runs at the delivery side on purpose: frames always
// enter the wrapped fabric, so sender-side bookkeeping — bus occupancy,
// send-window onWire callbacks — behaves exactly as in a fault-free
// run. A crashed sender's frames still leave its NIC model and die on
// the medium; this keeps the sender's own flow control live, which is
// what real lost frames do to real senders.
//
// Determinism: the injector draws randomness from its own stream,
// derived from (engine seed, plan seed), and draws only when a
// stochastic window is active for the frame at hand. A plan with no
// active window at any delivery perturbs nothing — the run is
// bit-identical to the unwrapped fabric.
type Injector struct {
	inner netsim.Fabric
	plan  *Plan
	eng   *sim.Engine
	rng   *rand.Rand
	stats Stats
}

var _ netsim.Fabric = (*Injector)(nil)

// Wrap layers plan over inner. A nil or empty plan is legal and
// perturbs nothing; callers that want zero overhead can skip wrapping
// instead. Crash and partition windows are emitted to the engine's
// tracer (if any) as spans so they appear alongside the drops they
// cause.
func Wrap(inner netsim.Fabric, plan *Plan) *Injector {
	if plan == nil {
		plan = &Plan{}
	}
	eng := inner.Engine()
	// SplitMix64-style scramble of (engine seed, plan seed) so the
	// fault stream is unrelated to every other stream in the run and
	// changes with either seed.
	z := uint64(eng.Seed()) ^ (uint64(plan.Seed)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	inj := &Injector{inner: inner, plan: plan, eng: eng,
		rng: rand.New(rand.NewSource(int64(z ^ (z >> 31))))}
	if tr := eng.Tracer(); tr != nil {
		for _, c := range plan.Crashes {
			tr.Emit(trace.Event{TS: stime(c.From), Dur: stime(c.To) - stime(c.From),
				Ph: trace.PhaseSpan, Pid: trace.PidFaults, Tid: c.Node,
				Cat: "faults", Name: "crash"})
		}
		for i, p := range plan.Partitions {
			tr.Emit(trace.Event{TS: stime(p.From), Dur: stime(p.To) - stime(p.From),
				Ph: trace.PhaseSpan, Pid: trace.PidFaults, Tid: i,
				Cat: "faults", Name: "partition",
				K1: "group_a", V1: int64(len(p.GroupA)), K2: "group_b", V2: int64(len(p.GroupB))})
		}
	}
	return inj
}

// stime converts plan seconds to trace/engine virtual nanoseconds.
func stime(secs float64) int64 { return int64(secs * 1e9) }

// active reports whether t (virtual seconds) lies in [from,to).
func active(t, from, to float64) bool { return t >= from && t < to }

// FaultStats returns the injector's own counters.
func (j *Injector) FaultStats() Stats { return j.stats }

// Engine returns the underlying engine.
func (j *Injector) Engine() *sim.Engine { return j.eng }

// Nodes reports the wrapped fabric's node count.
func (j *Injector) Nodes() int { return j.inner.Nodes() }

// Stats returns the wrapped fabric's counters corrected for the
// injector's interventions: frames the injector swallowed move from
// Delivered to Dropped, and duplicate deliveries count as Delivered.
func (j *Injector) Stats() netsim.Stats {
	s := j.inner.Stats()
	drops := j.stats.CrashDrops + j.stats.PartitionDrops + j.stats.LossDrops
	s.Delivered += j.stats.Duplicated - drops
	s.Dropped += drops
	return s
}

// Attach registers a node on the wrapped fabric with a fault-filtering
// handler around h.
func (j *Injector) Attach(name string, h netsim.Handler) int {
	var id int
	id = j.inner.Attach(name, func(src int, payload interface{}, sentAt sim.Time) {
		j.deliver(src, id, payload, sentAt, h)
	})
	return id
}

// Multicast delegates to the wrapped fabric.
func (j *Injector) Multicast(src int, dsts []int, size int, payload interface{}, onWire func()) {
	j.inner.Multicast(src, dsts, size, payload, onWire)
}

// Unicast delegates to the wrapped fabric.
func (j *Injector) Unicast(src, dst, size int, payload interface{}, onWire func()) {
	j.inner.Unicast(src, dst, size, payload, onWire)
}

// crashed reports whether node is inside a crash window at time t.
func (j *Injector) crashed(node int, t float64) bool {
	for _, c := range j.plan.Crashes {
		if c.Node == node && active(t, c.From, c.To) {
			return true
		}
	}
	return false
}

// partitioned reports whether src and dst are on opposite sides of a
// partition active at time t.
func (j *Injector) partitioned(src, dst int, t float64) bool {
	for _, p := range j.plan.Partitions {
		if !active(t, p.From, p.To) {
			continue
		}
		sideOf := func(n int) int {
			for _, a := range p.GroupA {
				if a == n {
					return 1
				}
			}
			for _, b := range p.GroupB {
				if b == n {
					return 2
				}
			}
			return 0 // not named: unaffected by this partition
		}
		ss, ds := sideOf(src), sideOf(dst)
		if ss != 0 && ds != 0 && ss != ds {
			return true
		}
	}
	return false
}

// traceFault emits one injector instant (nil-tracer safe).
func (j *Injector) traceFault(dst int, name string, src int, v2key string, v2 int64) {
	if tr := j.eng.Tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(j.eng.Now()), Ph: trace.PhaseInstant,
			Pid: trace.PidFaults, Tid: dst, Cat: "faults", Name: name,
			K1: "src", V1: int64(src), K2: v2key, V2: v2})
	}
}

// deliver runs the fault pipeline for one frame arriving at dst. It is
// invoked by the wrapped fabric's delivery event, so eng.Now() is the
// fabric's natural delivery time.
func (j *Injector) deliver(src, dst int, payload interface{}, sentAt sim.Time, h netsim.Handler) {
	now := j.eng.Now().Seconds()
	sent := sentAt.Seconds()

	// Crash windows: a frame dies if its sender was crashed when it was
	// transmitted or its receiver is crashed when it arrives.
	if j.crashed(src, sent) || j.crashed(dst, now) {
		j.stats.CrashDrops++
		j.traceFault(dst, "crash_drop", src, "", 0)
		return
	}
	// Partitions cut the link for the frame's whole flight: judged at
	// transmission time, so a partition that lifts mid-flight still
	// kills frames sent while it was up.
	if j.partitioned(src, dst, sent) {
		j.stats.PartitionDrops++
		j.traceFault(dst, "partition_drop", src, "", 0)
		return
	}
	// Loss bursts, judged at delivery time on the (src,dst) link.
	for _, b := range j.plan.Loss {
		if !active(now, b.From, b.To) ||
			(b.Src != AnyNode && b.Src != src) || (b.Dst != AnyNode && b.Dst != dst) {
			continue
		}
		if j.rng.Float64() < b.Prob {
			j.stats.LossDrops++
			j.traceFault(dst, "loss_drop", src, "", 0)
			return
		}
	}
	// Delay spikes and reorder jitter accumulate into one deferral.
	var extra sim.Duration
	for _, d := range j.plan.Delays {
		if !active(now, d.From, d.To) ||
			(d.Src != AnyNode && d.Src != src) || (d.Dst != AnyNode && d.Dst != dst) {
			continue
		}
		extra += sim.DurationOf(d.Delay)
		if d.Jitter > 0 {
			extra += sim.DurationOf(j.rng.Float64() * d.Jitter)
		}
	}
	for _, r := range j.plan.Reorders {
		if !active(now, r.From, r.To) {
			continue
		}
		if j.rng.Float64() < r.Prob && r.MaxDelay > 0 {
			extra += sim.DurationOf(j.rng.Float64() * r.MaxDelay)
		}
	}
	// Duplication: the copy arrives after the original plus any jitter,
	// so a duplicate of a delayed frame is also delayed.
	dup := false
	for _, d := range j.plan.Duplicates {
		if active(now, d.From, d.To) && j.rng.Float64() < d.Prob {
			dup = true
			break
		}
	}
	if s, ok := payload.(Shared); dup && ok {
		s.Retain(1)
	}
	if extra > 0 {
		j.stats.Delayed++
		j.traceFault(dst, "delay", src, "extra_us", int64(extra)/1000)
		at := j.eng.Now().Add(extra)
		j.eng.Schedule(at, func() { h(src, payload, sentAt) })
		if dup {
			j.stats.Duplicated++
			j.traceFault(dst, "duplicate", src, "", 0)
			j.eng.Schedule(at, func() { h(src, payload, sentAt) })
		}
		return
	}
	h(src, payload, sentAt)
	if dup {
		j.stats.Duplicated++
		j.traceFault(dst, "duplicate", src, "", 0)
		h(src, payload, sentAt)
	}
}

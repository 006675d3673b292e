package sim

import "math/rand"

// This file exports the hold-model queue exerciser that backs the
// sim.QueueHold100k entry in BENCH_*.json snapshots and
// BenchmarkEventQueueHold. The event queue is an internal engine
// detail, so internal/benchio cannot drive it directly, and routing it
// through the full engine would charge the queue for the engine loop
// around it. The exerciser performs exactly one pop-min + one reinsert
// per op and nothing else.

// benchGap draws the classic hold-model inter-event gap: mostly dense
// traffic with a heavy tail of far-out timers, mirroring what a large
// netsim/pvm run schedules.
func benchGap(rng *rand.Rand) Time {
	if rng.Intn(10) == 0 {
		return Time(rng.Int63n(int64(20 * Millisecond))) // retransmit-timer scale
	}
	return Time(rng.Int63n(int64(100 * Microsecond))) // frame/wake scale
}

// HoldBench drives the engine's event queue under the hold model
// (steady-state pop-min + reinsert at a later time) at a fixed pending
// population.
type HoldBench struct {
	q   eventQueue
	rng *rand.Rand
	seq uint64
}

// NewHoldBench preloads an event queue with `pending` events whose
// firing times follow the hold-model gap distribution.
func NewHoldBench(pending int, seed int64) *HoldBench {
	hb := &HoldBench{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < pending; i++ {
		hb.q.insert(&event{at: benchGap(hb.rng), seq: hb.seq})
		hb.seq++
	}
	return hb
}

// Ops performs n hold-model operations: each pops the minimum event and
// reinserts it at a later time, keeping the pending population fixed.
func (hb *HoldBench) Ops(n int) {
	for i := 0; i < n; i++ {
		ev := hb.q.pop()
		ev.at += benchGap(hb.rng)
		ev.seq = hb.seq
		hb.seq++
		hb.q.insert(ev)
	}
}

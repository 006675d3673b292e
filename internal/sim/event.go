package sim

// event is a scheduled callback. Events with equal times fire in the
// order they were scheduled (seq breaks ties), which keeps runs
// deterministic.
//
// Fired and canceled events are recycled through the engine's free
// list: Schedule/scheduleStep is the hottest allocation site in the
// simulator (every Sleep and wake goes through it; network frames go
// through lanes), so the steady state runs allocation-free. A process resumption is
// stored as the proc pointer itself rather than a `func() { step(p) }`
// closure, which removes the second per-wakeup allocation.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc // when non-nil, fire by stepping this process (fn is nil)
	// lane, when non-nil, marks the queue entry of a Lane's earliest
	// booking: firing it runs that booking and queues the next. The
	// entry belongs to the lane and never enters the free list.
	lane *Lane
	// eng is the owning engine, set once when the event object is first
	// allocated; Cancel reaches the event queue through it.
	eng *Engine
	// idx is the event's index in the event queue, or -1 once it has
	// left it. Pop and Cancel set -1, so a cancel can tell a pending
	// event from one that already fired and must not be touched.
	idx int
}

// Runner is a callback object a Lane books. Storing a pointer in a
// booking allocates nothing, so pooled callback objects (the network's
// frame deliveries) make the hot path allocation-free where a fresh
// closure per booking could not.
type Runner interface{ Run() }

// EventHandle allows a scheduled event to be canceled before it fires.
// The handle remembers the event's sequence number: once the event has
// fired and its object has been recycled for a later schedule, a stale
// handle no longer matches and Cancel is a no-op instead of killing an
// unrelated event.
type EventHandle struct {
	ev  *event
	seq uint64
}

// Cancel removes the event from the queue and recycles it immediately.
// Canceling an already-fired or already-canceled event is a no-op.
//
// Reclamation is eager by design: timeout-heavy workloads (GlobalRead
// deadlines, retransmit timers) cancel almost every event they
// schedule, and leaving tombstones to be skipped at pop time lets the
// queue grow with the cancel rate instead of the pending population.
func (h EventHandle) Cancel() {
	ev := h.ev
	if ev == nil || ev.seq != h.seq || ev.idx < 0 {
		return
	}
	ev.eng.q.remove(ev)
	ev.eng.recycle(ev)
}

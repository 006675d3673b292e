package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refModel is the obviously-correct priority queue the event queue is
// differenced against: a slice kept sorted by (at, seq).
type refModel []*event

func (m *refModel) insert(ev *event) {
	i := sort.Search(len(*m), func(i int) bool {
		o := (*m)[i]
		return o.at > ev.at || (o.at == ev.at && o.seq > ev.seq)
	})
	*m = append(*m, nil)
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = ev
}

func (m *refModel) pop() *event {
	ev := (*m)[0]
	*m = (*m)[1:]
	return ev
}

func (m *refModel) removeAt(i int) *event {
	ev := (*m)[i]
	*m = append((*m)[:i], (*m)[i+1:]...)
	return ev
}

// checkQueue fails the test unless q, with laned lane bookings waiting
// behind their lanes' queued heads, holds model's events: the same
// count and minimum key, every item's key equal to its event's, every
// event at the index it records, and no item below its parent.
func checkQueue(t *testing.T, op int, q *eventQueue, laned int, model refModel) {
	t.Helper()
	if q.len()+laned != len(model) {
		t.Fatalf("op %d: len %d + %d laned, want %d", op, q.len(), laned, len(model))
	}
	if len(model) > 0 && (q.peek().at != model[0].at || q.peek().seq != model[0].seq) {
		t.Fatalf("op %d: peek (at=%d seq=%d) want (at=%d seq=%d)",
			op, q.peek().at, q.peek().seq, model[0].at, model[0].seq)
	}
	for i, it := range q.items {
		if it.at != it.ev.at || it.seq != it.ev.seq || it.ev.idx != i {
			t.Fatalf("op %d: item %d (at=%d seq=%d) holds event (at=%d seq=%d idx=%d)",
				op, i, it.at, it.seq, it.ev.at, it.ev.seq, it.ev.idx)
		}
		if i > 0 && it.less(q.items[(i-1)/4]) {
			t.Fatalf("op %d: item %d sorts before its parent", op, i)
		}
	}
}

// popMatches pops q and model and fails the test unless they agree and
// the popped event is marked unqueued.
func popMatches(t *testing.T, op int, q *eventQueue, model *refModel) *event {
	t.Helper()
	want, got := model.pop(), q.pop()
	if got != want {
		t.Fatalf("op %d: pop got (at=%d seq=%d) want (at=%d seq=%d)",
			op, got.at, got.seq, want.at, want.seq)
	}
	if got.idx != -1 {
		t.Fatalf("op %d: popped event keeps index %d", op, got.idx)
	}
	return got
}

// TestQueueMatchesReference drives the event queue through a long
// random mix of inserts, pops and identity removals and checks every
// pop against the reference model. The time distribution mixes dense
// clusters (equal-time bursts, as barrier releases produce) with long
// gaps (idle timers).
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var model refModel
	seq := uint64(0)
	now := Time(0)

	newEvent := func() *event {
		var at Time
		switch rng.Intn(4) {
		case 0: // same instant burst
			at = now
		case 1: // dense near future
			at = now + Time(rng.Int63n(int64(Microsecond)))
		case 2: // medium horizon
			at = now + Time(rng.Int63n(int64(Millisecond)))
		default: // sparse far future
			at = now + Time(rng.Int63n(int64(10*Second)))
		}
		ev := &event{at: at, seq: seq}
		seq++
		return ev
	}

	for op := 0; op < 200000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(model) == 0:
			ev := newEvent()
			q.insert(ev)
			model.insert(ev)
		case r < 8:
			now = popMatches(t, op, &q, &model).at
		default:
			ev := model.removeAt(rng.Intn(len(model)))
			q.remove(ev)
		}
		if q.len() != len(model) {
			t.Fatalf("op %d: len %d want %d", op, q.len(), len(model))
		}
	}
	checkQueue(t, -1, &q, 0, model)
	for len(model) > 0 {
		popMatches(t, -1, &q, &model)
	}
	if q.pop() != nil {
		t.Fatal("pop on empty queue returned an event")
	}
}

// booked is a lane booking's stand-in in the reference model: its at
// and seq are the booking's key, and its lane field names the lane.
// Firing the booking hands it back, so the test can tell which booking
// the lane ran.
type booked struct{ ev *event }

func (booked) Run() {}

// FuzzQueueMatchesReference decodes a sequence of schedules, lane
// bookings, pops and cancels from its input, two bytes an operation,
// and checks the engine's queue and lanes against the reference model
// after each. A schedule lands arg nanoseconds, scaled by a power of
// two up to 2^15, after the last popped time, so small inputs produce
// equal-time runs as well as spread-out ones. A booking goes on one of
// three lanes, arg nanoseconds after the later of that time and the
// lane's last booking, so each lane's times never decrease. A pop
// takes the queue's minimum and, for a lane's entry, the lane's
// earliest booking; both must be the model's minimum. A cancel removes
// a scheduled event (a lane booking cannot be canceled, so picking one
// is a no-op).
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 3, 3, 0, 2, 0})
	f.Add([]byte{0xf0, 9, 0x10, 200, 0, 1, 0, 1, 3, 1, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 3, 2, 3, 0, 2, 0, 2, 0})
	f.Add([]byte{4, 0, 4, 0, 0, 0, 0x14, 3, 4, 0, 2, 0, 0x24, 1, 2, 0, 2, 0, 4, 0, 7, 1})
	f.Add([]byte{0x24, 5, 0x14, 0, 4, 5, 0, 5, 0x20, 5, 2, 0, 3, 3, 2, 0, 0x24, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine(1)
		lanes := []*Lane{e.NewLane(), e.NewLane(), e.NewLane()}
		last := make([]Time, len(lanes))
		var model refModel
		pop := func(op int) {
			t.Helper()
			want := model.pop()
			got := e.q.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("op %d: pop got (at=%d seq=%d) want (at=%d seq=%d)",
					op, got.at, got.seq, want.at, want.seq)
			}
			e.now = got.at
			if l := got.lane; l != nil {
				if b := l.next().(booked); b.ev != want {
					t.Fatalf("op %d: lane ran booking (at=%d seq=%d) want (at=%d seq=%d)",
						op, b.ev.at, b.ev.seq, want.at, want.seq)
				}
			} else if got != want || got.idx != -1 {
				t.Fatalf("op %d: popped event %p (index %d), want %p", op, got, got.idx, want)
			}
		}
		for op := 0; len(data) >= 2; op++ {
			code, arg := data[0], data[1]
			data = data[2:]
			switch {
			case code%8 < 2 || len(model) == 0 && code%8 < 4:
				ev := e.push(e.now + Time(arg)<<(code>>4))
				model.insert(ev)
			case code%8 < 4:
				pop(op)
			case code%8 < 6:
				k := int(code>>4) % len(lanes)
				at := max(e.now, last[k]) + Time(arg)
				last[k] = at
				ref := &event{at: at, seq: e.seq, lane: lanes[k]}
				lanes[k].Book(at, booked{ref})
				model.insert(ref)
			case len(model) > 0:
				i := int(arg) % len(model)
				if ev := model[i]; ev.lane == nil {
					model.removeAt(i)
					e.q.remove(ev)
					if ev.idx != -1 {
						t.Fatalf("op %d: removed event keeps index %d", op, ev.idx)
					}
				}
			}
			checkQueue(t, op, &e.q, e.laned, model)
			if e.Pending() != len(model) {
				t.Fatalf("op %d: Pending %d, want %d", op, e.Pending(), len(model))
			}
		}
		for len(model) > 0 {
			pop(-1)
		}
		if e.q.len() != 0 || e.laned != 0 {
			t.Fatalf("drained model left %d queued and %d laned", e.q.len(), e.laned)
		}
	})
}

// TestCancelReclaimsEagerly pins the fix for the canceled-event leak:
// canceled events used to stay in the heap as tombstones until their
// deadline passed, so a cancel-heavy run grew the queue without bound.
// Cancel must now remove and recycle immediately.
func TestCancelReclaimsEagerly(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 100000; i++ {
		h := eng.Schedule(Time(Second), func() { t.Error("canceled event fired") })
		h.Cancel()
		if p := eng.Pending(); p != 0 {
			t.Fatalf("iteration %d: %d events pending after cancel", i, p)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutHeavyQueueBounded runs the dominant cancel producer — a
// process whose every wait carries a far-out timeout that a prompt wake
// cancels (the GlobalRead/RecvTimeout pattern) — and asserts the live
// queue population stays O(1) across tens of thousands of rounds. With
// skip-on-pop tombstones this peaks at the round count.
func TestTimeoutHeavyQueueBounded(t *testing.T) {
	const rounds = 20000
	eng := NewEngine(1)
	var wl WaitList
	maxPending := 0
	eng.Spawn("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			// One hour out: far beyond the run, so every timer that
			// fired would be a test failure and every one left queued
			// would show up in maxPending.
			if !wl.WaitTimeout(p, eng.Now().Add(3600*Second)) {
				t.Error("waiter timed out despite prompt wake")
				return
			}
			if q := eng.Pending(); q > maxPending {
				maxPending = q
			}
		}
	})
	eng.Spawn("waker", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			for !wl.WakeOne() {
				p.Sleep(Microsecond)
			}
			p.Sleep(Microsecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if maxPending > 8 {
		t.Fatalf("queue grew to %d pending events under a cancel-heavy workload; want O(1)", maxPending)
	}
}

// TestCancelStaleHandleNoop: once an event has fired (or been
// canceled), its handle must be inert even after the event object is
// recycled into a new schedule.
func TestCancelStaleHandleNoop(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	h1 := eng.Schedule(Time(Microsecond), func() { fired++ })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The event object is now on the free list; reuse it.
	eng.Schedule(eng.Now().Add(Microsecond), func() { fired++ })
	h1.Cancel() // stale: must not cancel the new event
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired %d events, want 2 (stale Cancel must be a no-op)", fired)
	}
	// Double cancel on a live handle must also be safe.
	h2 := eng.Schedule(eng.Now().Add(Microsecond), func() { fired++ })
	h2.Cancel()
	h2.Cancel()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired %d events, want 2 after double cancel", fired)
	}
}

package sim

import (
	"slices"
	"testing"
)

// recorder appends its id to a shared log when it fires.
type recorder struct {
	id  int
	log *[]int
}

func (r *recorder) Run() { *r.log = append(*r.log, r.id) }

// TestLaneQueuesOnlyItsHead books n callbacks on one lane, some at
// equal times, and a scheduled event at one of those times between
// them. The lane takes one queue entry while Pending counts all n
// bookings, and everything fires in time order, FIFO among equal times
// across the lane and the schedule alike.
func TestLaneQueuesOnlyItsHead(t *testing.T) {
	const n = 100
	e := NewEngine(1)
	l := e.NewLane()
	var log []int
	for i := 0; i < n; i++ {
		l.Book(Time(i/4), &recorder{i, &log})
		if i == n/2 {
			e.Schedule(Time(i/4), func() { log = append(log, -1) })
		}
	}
	if e.q.len() != 2 || e.Pending() != n+1 {
		t.Fatalf("%d bookings and one event: %d queue entries, Pending %d; want 2 and %d",
			n, e.q.len(), e.Pending(), n+1)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		want = append(want, i)
		if i == n/2 {
			want = append(want, -1)
		}
	}
	if !slices.Equal(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	if e.Pending() != 0 || e.q.len() != 0 {
		t.Fatalf("after the run: Pending %d, %d queue entries; want 0", e.Pending(), e.q.len())
	}
}

// TestLaneBookingAllocsZero checks that once a lane's ring has grown to
// its working size, booking and firing allocate nothing.
func TestLaneBookingAllocsZero(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane()
	var log []int
	r := &recorder{0, &log}
	round := func() {
		for i := 1; i <= 12; i++ {
			l.Book(e.Now().Add(Duration(i)*Microsecond), r)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		log = log[:0]
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("a warmed round of 12 bookings allocates %.1f times, want 0", a)
	}
}

// TestLaneBookingOutOfOrderPanics checks the lane's contract: a booking
// before now, or before the lane's latest outstanding booking, panics.
func TestLaneBookingOutOfOrderPanics(t *testing.T) {
	for name, book := range map[string]func(*Engine, *Lane){
		"before now": func(e *Engine, l *Lane) {
			e.Schedule(5, func() { l.Book(4, &recorder{}) })
			e.Run()
		},
		"before the lane's last booking": func(e *Engine, l *Lane) {
			l.Book(5, &recorder{})
			l.Book(4, &recorder{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("the booking did not panic")
				}
			}()
			e := NewEngine(1)
			book(e, e.NewLane())
		})
	}
}

// FuzzLanesMatchReference drives the engine itself, two bytes an
// operation: a schedule, a booking on one of three lanes, a cancel or a
// RunUntil, and checks what each RunUntil fired against a reference
// that sorts every live event by (time, seq). A schedule lands arg
// nanoseconds after now, scaled by a power of two; a booking lands arg
// nanoseconds after the later of now and its lane's last booking; a
// RunUntil runs to arg nanoseconds, scaled, past now. A booking whose
// code has bit 0x80 set books one more on its lane when it fires, as a
// delivery that triggers a send does, so bookings also arrive while
// the engine runs. A booking's stand-in in the reference names its
// lane, so a cancel can tell it from a scheduled event's.
func FuzzLanesMatchReference(f *testing.F) {
	f.Add([]byte{0, 3, 2, 3, 2, 0, 3, 2, 6, 9})
	f.Add([]byte{0x82, 2, 0x92, 2, 0xa2, 0, 0, 2, 6, 1, 4, 0, 6, 0xff})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2, 0, 0x82, 5, 6, 4, 4, 1, 6, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine(1)
		lanes := []*Lane{e.NewLane(), e.NewLane(), e.NewLane()}
		last := make([]Time, len(lanes))
		var model refModel
		var handles []EventHandle
		var fired []uint64 // the seqs of what fired, which are unique
		newRef := func(at Time, l *Lane) *event {
			ref := &event{at: at, seq: e.seq, lane: l}
			model.insert(ref)
			return ref
		}
		var book func(k int, at Time, chain bool)
		book = func(k int, at Time, chain bool) {
			last[k] = at
			ref := newRef(at, lanes[k])
			lanes[k].Book(at, runnerFunc(func() {
				fired = append(fired, ref.seq)
				if chain {
					book(k, max(e.now, last[k])+1, false)
				}
			}))
		}
		for len(data) >= 2 {
			code, arg := data[0], data[1]
			data = data[2:]
			shift := (code >> 4) & 7
			switch code % 8 {
			case 0, 1:
				ref := newRef(e.now+Time(arg)<<shift, nil)
				handles = append(handles, e.Schedule(ref.at, func() { fired = append(fired, ref.seq) }))
			case 2, 3:
				k := int(shift) % len(lanes)
				book(k, max(e.now, last[k])+Time(arg), code&0x80 != 0)
			case 4, 5:
				if len(handles) == 0 {
					break
				}
				h := handles[int(arg)%len(handles)]
				h.Cancel()
				if i := slices.IndexFunc(model, func(ev *event) bool { return ev.lane == nil && ev.seq == h.seq }); i >= 0 {
					model.removeAt(i)
				}
			default:
				deadline := e.now + Time(arg)<<shift
				if err := e.RunUntil(deadline); err != nil {
					t.Fatal(err)
				}
				var want []uint64
				for len(model) > 0 && model[0].at <= deadline {
					want = append(want, model.pop().seq)
				}
				if !slices.Equal(fired, want) {
					t.Fatalf("RunUntil(%d) fired %v, want %v", deadline, fired, want)
				}
				fired = fired[:0]
			}
			if e.Pending() != len(model) {
				t.Fatalf("Pending %d, want %d", e.Pending(), len(model))
			}
		}
	})
}

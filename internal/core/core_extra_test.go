package core

import (
	"testing"

	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
)

func TestWriteNoReadersIsLocal(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "solo", Writer: 0, Readers: nil, Size: 64}
	m.Spawn("w", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		n.Write(loc, 3, "x")
		if task.Sent() != 0 {
			t.Errorf("reader-less write sent %d messages", task.Sent())
		}
		if u, ok := n.Read(loc); !ok || u.Value != "x" {
			t.Errorf("own buffer missing write: %+v", u)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalReadStalenessStats(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 64}
	var st Stats
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		task.Compute(50 * sim.Millisecond) // let several writes land
		u := n.GlobalRead(loc, 10, 8)      // writer is at ~4: returns iter>=2
		if u.Iter < 2 {
			t.Errorf("contract violated: iter %d", u.Iter)
		}
		st = n.Stats()
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for i := int64(0); i < 5; i++ {
			task.Compute(10 * sim.Millisecond)
			n.Write(loc, i, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.StaleSum <= 0 || st.StaleMax <= 0 {
		t.Fatalf("staleness stats not recorded: %+v", st)
	}
	if st.StaleMax > 8 {
		t.Fatalf("recorded staleness %d beyond the age bound", st.StaleMax)
	}
}

func TestWriteSizedChargesGivenSize(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 10}
	var arrived sim.Time
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		u := n.GlobalRead(loc, 0, 0)
		_ = u
		arrived = task.Now()
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		n.WriteSized(loc, 0, 100000, "big") // ~80ms on the 10 Mbps bus
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived < sim.Time(70*sim.Millisecond) {
		t.Fatalf("100 KB update arrived at %v; size override not charged", arrived)
	}
}

func TestFlushIdempotentWhenEmpty(t *testing.T) {
	eng, m := newMachine(1)
	m.Spawn("n", func(task *pvm.Task) {
		n := NewNode(task, Options{Window: 1})
		n.Flush()
		n.Flush()
		if task.Sent() != 0 {
			t.Error("empty flush sent messages")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMsgBarrierMessageCount(t *testing.T) {
	// A P-member barrier costs P-1 arrivals plus one multicast release.
	eng, m := newMachine(1)
	const p = 4
	b := NewMsgBarrier([]int{0, 1, 2, 3})
	tasks := make([]*pvm.Task, p)
	for i := 0; i < p; i++ {
		i := i
		m.Spawn("w", func(task *pvm.Task) {
			tasks[i] = task
			b.Wait(task)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, task := range tasks {
		total += task.Sent()
	}
	if total != p { // p-1 arrive frames + 1 release multicast
		t.Fatalf("barrier episode cost %d sends, want %d", total, p)
	}
}

func TestObserverSeesStaleUpdates(t *testing.T) {
	// The observer must see even updates the buffer rejects as stale.
	n := &Node{}
	var seen []int64
	n.opts.Observer = func(locID int, u Update) { seen = append(seen, u.Iter) }
	n.apply(&updateMsg{Loc: 1, Iter: 5, Value: "a"})
	n.apply(&updateMsg{Loc: 1, Iter: 3, Value: "stale"})
	if len(seen) != 2 || seen[1] != 3 {
		t.Fatalf("observer missed the stale update: %v", seen)
	}
	if buffered(n, 1).Iter != 5 {
		t.Fatal("stale update overwrote the buffer")
	}
}

// TestWriteBlockingReadAllocsZero checks that a warmed DSM update cycle,
// one Write and the blocking Global_Read it releases, allocates
// nothing: the update message comes from the writer's free list,
// and a write without a Window hands pvm no wire callback to wrap. Each
// measured run of the engine ends when the reader's read returns.
func TestWriteBlockingReadAllocsZero(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Close()
	m := pvm.NewMachine(eng, netsim.New(eng, netsim.DefaultConfig()), pvm.DefaultConfig())
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 64}
	value := new(int) // boxed once, so no write boxes its value
	reads := 0
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for i := int64(0); ; i++ {
			if u := n.GlobalRead(loc, i, 0); u.Iter != i {
				t.Errorf("read %d returned iteration %d", i, u.Iter)
			}
			reads++
			eng.Stop()
		}
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for i := int64(0); ; i++ {
			task.Compute(sim.Millisecond)
			n.Write(loc, i, value)
		}
	})
	next := func() {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		next()
	}
	if allocs := testing.AllocsPerRun(500, next); allocs != 0 {
		t.Fatalf("a warmed write/blocking-read cycle allocates %.3f times, want 0", allocs)
	}
	if reads != 3501 {
		t.Fatalf("%d reads returned, want 3501 (one per engine run)", reads)
	}
}

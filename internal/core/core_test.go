package core

import (
	"testing"
	"testing/quick"

	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
)

func newMachine(seed int64) (*sim.Engine, *pvm.Machine) {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, netsim.DefaultConfig())
	return eng, pvm.NewMachine(eng, net, pvm.DefaultConfig())
}

func TestModeString(t *testing.T) {
	if Sync.String() != "sync" || Async.String() != "async" || NonStrict.String() != "global_read" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode formatting wrong")
	}
}

func TestWritePropagatesToReader(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 256}
	var got Update
	var had bool
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		if _, ok := n.Read(loc); ok {
			t.Error("Read returned a value before any write arrived")
		}
		got = n.GlobalRead(loc, 5, 5) // any value from iteration >= 0
		_, had = n.Read(loc)
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		task.Compute(2 * sim.Millisecond)
		n.Write(loc, 3, "v3")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Value != "v3" || got.Iter != 3 || !had {
		t.Fatalf("got %+v had=%v", got, had)
	}
}

// buffered returns the update node n's buffer holds for location id
// (the zero Update if none).
func buffered(n *Node, id int) Update {
	u, _ := n.buf.Get(int64(id))
	return u
}

func TestStaleUpdatesDropped(t *testing.T) {
	n := &Node{}
	n.apply(&updateMsg{Loc: 1, Iter: 5, Value: "new"})
	n.apply(&updateMsg{Loc: 1, Iter: 3, Value: "old"})
	n.apply(&updateMsg{Loc: 1, Iter: 5, Value: "dup"})
	if u := buffered(n, 1); u.Value != "new" || u.Iter != 5 {
		t.Fatalf("buffer regressed: %+v", u)
	}
	n.apply(&updateMsg{Loc: 1, Iter: 6, Value: "newer"})
	if u := buffered(n, 1); u.Value != "newer" {
		t.Fatalf("fresh update rejected: %+v", u)
	}
}

func TestGlobalReadBlocksUntilFreshEnough(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 128}
	var iters []int64
	var when []sim.Time
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for cur := int64(1); cur <= 5; cur++ {
			u := n.GlobalRead(loc, cur, 1) // need iter >= cur-1
			iters = append(iters, u.Iter)
			when = append(when, task.Now())
		}
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for i := int64(0); i <= 5; i++ {
			task.Compute(10 * sim.Millisecond)
			n.Write(loc, i, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for k, cur := range []int64{1, 2, 3, 4, 5} {
		if iters[k] < cur-1 {
			t.Fatalf("GlobalRead(cur=%d, age=1) returned iter %d < %d", cur, iters[k], cur-1)
		}
	}
	// The reader computes nothing itself, so each read must have waited
	// for the writer's pace: read k (needing iter k) completes no
	// earlier than the writer's (k)'th write at ~10ms*(k+1).
	for k := range iters {
		floor := sim.Time(int64(10*sim.Millisecond) * (int64(k) + 1))
		if when[k] < floor {
			t.Fatalf("read %d completed at %v, before writer could have produced iter %d", k, when[k], k)
		}
	}
}

func TestGlobalReadAgeZeroLockstep(t *testing.T) {
	// age=0: reader at curIter must see a value from exactly >= curIter.
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 128}
	var stats Stats
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for cur := int64(0); cur < 10; cur++ {
			u := n.GlobalRead(loc, cur, 0)
			if u.Iter < cur {
				t.Errorf("age=0 returned iter %d < cur %d", u.Iter, cur)
			}
		}
		stats = n.Stats()
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for i := int64(0); i < 10; i++ {
			task.Compute(sim.Millisecond)
			n.Write(loc, i, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.GlobalReads != 10 {
		t.Fatalf("GlobalReads = %d, want 10", stats.GlobalReads)
	}
	if stats.BlockedReads == 0 || stats.BlockedTime == 0 {
		t.Fatalf("lockstep reader never blocked: %+v", stats)
	}
	if stats.StaleMax != 0 {
		t.Fatalf("age=0 observed staleness %d", stats.StaleMax)
	}
}

func TestAsyncReadNeverBlocks(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 128}
	reads := 0
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for i := 0; i < 100; i++ {
			n.Read(loc)
			reads++
		}
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		task.Compute(sim.Second) // writer far behind; reader must not care
		n.Write(loc, 0, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reads != 100 {
		t.Fatalf("async reader completed %d reads, want 100", reads)
	}
}

func TestBlockedReaderSendsNothing(t *testing.T) {
	// The whole point of Global_Read: a blocked reader generates no
	// traffic of its own.
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 128}
	out := &Location{ID: 2, Name: "y", Writer: 0, Readers: []int{1}, Size: 128}
	var sentDuringBlock int64 = -1
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		n.Register(out)
		n.Write(out, 0, nil) // one send before blocking
		before := task.Sent()
		n.GlobalRead(loc, 10, 0) // blocks a long time
		sentDuringBlock = task.Sent() - before
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		n.Register(out)
		task.Compute(100 * sim.Millisecond)
		n.Write(loc, 10, nil)
		n.Read(out)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sentDuringBlock != 0 {
		t.Fatalf("reader sent %d messages while blocked, want 0", sentDuringBlock)
	}
}

func TestWriterOwnBufferSeesOwnWrites(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 0, Readers: []int{}, Size: 64}
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		n.Write(loc, 7, "mine")
		u := n.GlobalRead(loc, 7, 0)
		if u.Value != "mine" || u.Iter != 7 {
			t.Errorf("writer does not see own write: %+v", u)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteWrongOwnerPanics(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 5, Readers: nil, Size: 64}
	m.Spawn("task", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		defer func() {
			if recover() == nil {
				panic("write by non-owner did not panic")
			}
		}()
		n.Write(loc, 0, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	n := NewNode(nil, Options{})
	a := &Location{ID: 1}
	b := &Location{ID: 1}
	n.Register(a)
	n.Register(a) // same pointer: fine
	defer func() {
		if recover() == nil {
			t.Error("conflicting Register did not panic")
		}
	}()
	n.Register(b)
}

func TestWindowCoalescing(t *testing.T) {
	run := func(coalesce bool) (Stats, int64) {
		eng, m := newMachine(1)
		loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 4096}
		var st Stats
		var lastIter int64
		m.Spawn("reader", func(task *pvm.Task) {
			n := NewNode(task, Options{})
			n.Register(loc)
			u := n.GlobalRead(loc, 50, 10) // wait until near-final value
			lastIter = u.Iter
		})
		m.Spawn("writer", func(task *pvm.Task) {
			n := NewNode(task, Options{Window: 1, Coalesce: coalesce})
			n.Register(loc)
			for i := int64(0); i <= 50; i++ {
				task.Compute(50 * sim.Microsecond) // writes faster than the wire
				n.Write(loc, i, i)
			}
			for n.Stats().UpdatesSent < n.Stats().Writes-n.Stats().Coalesced {
				task.Compute(sim.Millisecond)
				n.Flush()
			}
			st = n.Stats()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return st, lastIter
	}
	with, iterWith := run(true)
	without, _ := run(false)
	if with.Coalesced == 0 {
		t.Fatalf("coalescing never kicked in: %+v", with)
	}
	if without.Coalesced != 0 {
		t.Fatalf("coalescing happened while disabled: %+v", without)
	}
	if with.UpdatesSent >= without.UpdatesSent {
		t.Fatalf("coalescing did not reduce messages: %d vs %d", with.UpdatesSent, without.UpdatesSent)
	}
	if iterWith < 40 {
		t.Fatalf("reader under coalescing saw iter %d, want >= 40", iterWith)
	}
}

func TestRequestReadSolicits(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 128}
	var st Stats
	var got Update
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{RequestRead: true})
		n.Register(loc)
		got = n.GlobalRead(loc, 1, 1) // blocks; sends a solicitation
		st = n.Stats()
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		task.Compute(sim.Millisecond)
		n.Write(loc, 0, "v0")
		// Writer polls the DSM so it can answer solicitations.
		for i := 0; i < 50; i++ {
			task.Compute(sim.Millisecond)
			n.Read(loc)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 {
		t.Fatalf("Requests = %d, want 1", st.Requests)
	}
	if got.Iter != 0 || got.Value != "v0" {
		t.Fatalf("request-read returned %+v", got)
	}
}

func TestMsgBarrier(t *testing.T) {
	eng, m := newMachine(1)
	const p = 4
	b := NewMsgBarrier([]int{0, 1, 2, 3})
	var exit [p]sim.Time
	for i := 0; i < p; i++ {
		i := i
		m.Spawn("w", func(task *pvm.Task) {
			task.Compute(sim.Duration(i+1) * 10 * sim.Millisecond)
			b.Wait(task)
			exit[i] = task.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Everyone must leave at or after the slowest member's arrival.
	slowest := sim.Time(p * 10 * int(sim.Millisecond))
	for i := 0; i < p; i++ {
		if exit[i] < slowest {
			t.Fatalf("member %d left barrier at %v, before slowest arrival %v", i, exit[i], slowest)
		}
	}
}

func TestMsgBarrierSingleMember(t *testing.T) {
	eng, m := newMachine(1)
	b := NewMsgBarrier([]int{0})
	done := false
	m.Spawn("solo", func(task *pvm.Task) {
		b.Wait(task)
		done = true
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("single-member barrier blocked")
	}
}

func TestMsgBarrierReusableRounds(t *testing.T) {
	eng, m := newMachine(2)
	const p, rounds = 3, 5
	b := NewMsgBarrier([]int{0, 1, 2})
	counts := make([]int, p)
	for i := 0; i < p; i++ {
		i := i
		m.Spawn("w", func(task *pvm.Task) {
			for r := 0; r < rounds; r++ {
				task.Compute(sim.Duration(task.Proc().Rng().Intn(5)+1) * sim.Millisecond)
				b.Wait(task)
				counts[i]++
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Fatalf("member %d completed %d rounds, want %d", i, c, rounds)
		}
	}
}

// TestMsgBarrierDecide checks that every member of a Decide episode
// returns the coordinator's verdict, whatever it passed itself, and
// that a coordinator listed after other members still coordinates.
func TestMsgBarrierDecide(t *testing.T) {
	eng, m := newMachine(3)
	const p, rounds = 4, 4
	b := NewMsgBarrier([]int{2, 0, 1, 3})
	got := make([][]bool, p)
	for i := 0; i < p; i++ {
		i := i
		m.Spawn("w", func(task *pvm.Task) {
			for r := 0; r < rounds; r++ {
				task.Compute(sim.Duration(task.Proc().Rng().Intn(5)+1) * sim.Millisecond)
				// The coordinator (task 2) says yes in odd rounds; the
				// others always say the opposite of it.
				verdict := r%2 == 1
				if i != 2 {
					verdict = !verdict
				}
				got[i] = append(got[i], b.Decide(task, verdict))
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, vs := range got {
		for r, v := range vs {
			if v != (r%2 == 1) {
				t.Fatalf("member %d returned %v in round %d, want the coordinator's %v", i, v, r, r%2 == 1)
			}
		}
		if len(vs) != rounds {
			t.Fatalf("member %d completed %d rounds, want %d", i, len(vs), rounds)
		}
	}
}

func TestGlobalReadNegativeMinIterNonBlocking(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 64}
	var early, later Update
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		// curIter-age < 0 and nothing received: must return NoValue
		// immediately instead of blocking.
		early = n.GlobalRead(loc, 2, 10)
		task.Compute(20 * sim.Millisecond)
		later = n.GlobalRead(loc, 2, 10)
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		task.Compute(5 * sim.Millisecond)
		n.Write(loc, 0, "v0")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if early.Iter != NoValue || early.Value != nil {
		t.Fatalf("early read = %+v, want NoValue", early)
	}
	if later.Iter != 0 || later.Value != "v0" {
		t.Fatalf("later read = %+v, want iter 0", later)
	}
}

func TestGlobalReadObserverSeesAllUpdates(t *testing.T) {
	eng, m := newMachine(1)
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 64}
	var seen []int64
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{Observer: func(locID int, u Update) {
			seen = append(seen, u.Iter)
		}})
		n.Register(loc)
		u := n.GlobalRead(loc, 3, 0)
		if u.Iter < 3 {
			t.Errorf("read iter %d", u.Iter)
		}
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		for i := int64(0); i <= 3; i++ {
			task.Compute(sim.Millisecond)
			n.Write(loc, i, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("observer saw %v, want all four updates", seen)
	}
}

// Property: Global_Read never violates its staleness contract, for any
// writer pacing, age, and read schedule.
func TestGlobalReadContractProperty(t *testing.T) {
	f := func(seed int64, ageRaw, pacerRaw uint8) bool {
		age := int64(ageRaw % 8)
		pace := sim.Duration(pacerRaw%20+1) * sim.Millisecond
		eng, m := newMachine(seed)
		loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 200}
		ok := true
		const iters = 30
		m.Spawn("reader", func(task *pvm.Task) {
			n := NewNode(task, Options{})
			n.Register(loc)
			for cur := int64(0); cur < iters; cur++ {
				u := n.GlobalRead(loc, cur, age)
				// NoValue is permitted exactly when the contract demands
				// nothing (cur-age < 0 and nothing has arrived).
				if u.Iter == NoValue {
					if cur-age >= 0 {
						ok = false
					}
				} else if u.Iter < cur-age {
					ok = false
				}
				task.Compute(sim.Duration(task.Proc().Rng().Intn(4)) * sim.Millisecond)
			}
		})
		m.Spawn("writer", func(task *pvm.Task) {
			n := NewNode(task, Options{})
			n.Register(loc)
			for i := int64(0); i < iters; i++ {
				task.Compute(pace)
				n.Write(loc, i, i)
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

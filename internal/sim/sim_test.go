package sim

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.Schedule(10, func() { fired = true })
	e.Schedule(5, func() { h.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of (time, id) pairs, events fire sorted by time
// with FIFO tie-break.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) > 200 {
			times = times[:200]
		}
		e := NewEngine(42)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, tm := range times {
			at := Time(tm)
			seq := i
			e.Schedule(at, func() { fired = append(fired, rec{at, seq}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleepInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a0 b0 a10 b15 a30"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.SleepUntil(100)
		p.SleepUntil(50) // in the past: no-op
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Fatalf("woke at %v, want 100ns", at)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var wl WaitList
	e.Spawn("stuck", func(p *Proc) { wl.Wait(p) })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error %q does not name the stuck process", err)
	}
}

func TestWaitListFIFO(t *testing.T) {
	e := NewEngine(1)
	var wl WaitList
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			wl.Wait(p)
			order = append(order, name)
		})
	}
	e.Schedule(10, func() { wl.WakeOne() })
	e.Schedule(20, func() { wl.WakeAll() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine(1)
	var f future
	var got interface{}
	e.Spawn("reader", func(p *Proc) { got = f.Wait(p) })
	e.Schedule(50, func() { f.Complete(99) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("future value = %v, want 99", got)
	}
	if !f.Done() {
		t.Fatal("future not done")
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	e := NewEngine(1)
	var f future
	f.Complete("x")
	var got interface{}
	e.Spawn("late", func(p *Proc) { got = f.Wait(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Fatalf("late wait = %v, want x", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double Complete did not panic")
		}
	}()
	var f future
	f.Complete(1)
	f.Complete(2)
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine(1)
	s := newSemaphore(2)
	inside, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("worker", func(p *Proc) {
			s.Acquire(p)
			inside++
			if inside > peak {
				peak = inside
			}
			p.Sleep(10)
			inside--
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if s.Available() != 2 {
		t.Fatalf("permits = %d, want 2", s.Available())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	s := newSemaphore(1)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on empty semaphore")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestBarrierRounds(t *testing.T) {
	e := NewEngine(1)
	const n, rounds = 4, 3
	b := newBarrier(n)
	var times [rounds][n]Time
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for round := 0; round < rounds; round++ {
				p.Sleep(Duration(10 * (i + 1))) // skewed work
				b.Arrive(p)
				times[round][i] = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		for i := 1; i < n; i++ {
			if times[round][i] != times[round][0] {
				t.Fatalf("round %d: process %d left barrier at %v, process 0 at %v",
					round, i, times[round][i], times[round][0])
			}
		}
	}
}

func TestBarrierGeneration(t *testing.T) {
	e := NewEngine(1)
	b := newBarrier(2)
	var gens []int
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p *Proc) {
			for r := 0; r < 3; r++ {
				gens = append(gens, b.Arrive(p))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, g := range gens {
		count[g]++
	}
	for g := 0; g < 3; g++ {
		if count[g] != 2 {
			t.Fatalf("generation %d completed by %d parties, want 2 (gens=%v)", g, count[g], gens)
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("process panic did not propagate to Run")
		}
		if !strings.Contains(r.(string), "boom") || !strings.Contains(r.(string), "bad") {
			t.Fatalf("panic %q lacks process name or message", r)
		}
	}()
	_ = e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || e.Now() != 25 {
		t.Fatalf("fired %v now %v; want 2 events, now=25ns", fired, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run, want 4 events", fired)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var vals []int64
		for i := 0; i < 4; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(p.Rng().Intn(100) + 1))
					vals = append(vals, int64(p.Now())+p.Rng().Int63n(10))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRngStreamsIndependent(t *testing.T) {
	e := NewEngine(123)
	r0 := e.rngFor(0)
	r1 := e.rngFor(1)
	equal := 0
	for i := 0; i < 64; i++ {
		if r0.Int63() == r1.Int63() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("adjacent process RNG streams correlate: %d/64 equal draws", equal)
	}
}

func TestTimeHelpers(t *testing.T) {
	if DurationOf(1.5) != 1500*Millisecond {
		t.Fatalf("DurationOf(1.5) = %v", DurationOf(1.5))
	}
	tt := Time(0).Add(2 * Second)
	if tt.Seconds() != 2 {
		t.Fatalf("Seconds = %v", tt.Seconds())
	}
	if tt.Sub(Time(Second)) != Duration(Second) {
		t.Fatal("Sub wrong")
	}
	if Time(1500000000).String() != "1.500000s" {
		t.Fatalf("String = %q", Time(1500000000).String())
	}
}

// Property: semaphore never over-admits regardless of interleaving.
func TestSemaphoreProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8, nRaw uint8) bool {
		capacity := int(capRaw%4) + 1
		n := int(nRaw%20) + 1
		e := NewEngine(seed)
		s := newSemaphore(capacity)
		inside, ok := 0, true
		for i := 0; i < n; i++ {
			e.Spawn("w", func(p *Proc) {
				p.Sleep(Duration(p.Rng().Intn(50)))
				s.Acquire(p)
				inside++
				if inside > capacity {
					ok = false
				}
				p.Sleep(Duration(p.Rng().Intn(50) + 1))
				inside--
				s.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && s.Available() == capacity
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(3)
	fired := 0
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(i*10), func() {
			fired++
			if i == 4 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("fired %d events before Stop, want 5", fired)
	}
	// Stop is one-shot: a fresh Run drains the rest.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("fired %d after resume, want 10", fired)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := NewEngine(99)
	if e.Seed() != 99 {
		t.Fatal("Seed")
	}
	fired := false
	e.After(5*Millisecond, func() { fired = true })
	e.After(-time5(), func() {}) // negative clamps to now
	var p *Proc
	p = e.Spawn("named", func(pp *Proc) {
		if pp.Engine() != e || pp.Name() != "named" || pp.ID() != 0 {
			t.Error("proc accessors wrong")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || !p.Done() {
		t.Fatal("After event or proc completion missing")
	}
	if e.NewRng(7) == nil {
		t.Fatal("NewRng nil")
	}
}

func time5() Duration { return 5 * Millisecond }

func TestSleepNegative(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time5())
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced time to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitListLenAndFutureValue(t *testing.T) {
	e := NewEngine(1)
	var wl WaitList
	var f future
	e.Spawn("w", func(p *Proc) { wl.Wait(p) })
	e.Schedule(1, func() {
		if wl.Len() != 1 {
			t.Errorf("Len = %d", wl.Len())
		}
		wl.WakeAll()
		f.Complete("v")
		if f.Value() != "v" {
			t.Errorf("Value = %v", f.Value())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newBarrier(0) did not panic")
		}
	}()
	newBarrier(0)
}

func TestBarrierParties(t *testing.T) {
	if newBarrier(3).Parties() != 3 {
		t.Fatal("Parties")
	}
}

func TestDurationStrings(t *testing.T) {
	if (1500 * Millisecond).String() != "1.500000s" {
		t.Fatalf("Duration.String = %q", (1500 * Millisecond).String())
	}
	if (2 * Second).Seconds() != 2 {
		t.Fatal("Duration.Seconds")
	}
}

func TestRunUntilThenDeadlockReport(t *testing.T) {
	e := NewEngine(1)
	var wl WaitList
	e.Spawn("a", func(p *Proc) { wl.Wait(p) })
	e.Spawn("b", func(p *Proc) { wl.Wait(p) })
	// RunUntil with a finite deadline does not report deadlock...
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// ...but a full Run does, naming both processes.
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "a, b") {
		t.Fatalf("err = %v, want deadlock naming a and b", err)
	}
}

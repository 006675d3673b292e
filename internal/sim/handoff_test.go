package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nscc/internal/trace"
)

// runLog records "<label>@<virtual time>" entries, so a test can assert
// the exact order in which processes and callbacks ran.
type runLog struct {
	e   *Engine
	got []string
}

func (l *runLog) add(label string) {
	l.got = append(l.got, fmt.Sprintf("%s@%d", label, l.e.Now()))
}

func (l *runLog) check(t *testing.T, want string) {
	t.Helper()
	if got := strings.Join(l.got, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

type runnerFunc func()

func (f runnerFunc) Run() { f() }

// runRecover runs e and returns the value Run panicked with, if any.
func runRecover(e *Engine) (v interface{}) {
	defer func() { v = recover() }()
	_ = e.Run()
	return nil
}

// TestCallbackPanicOnProcessGoroutine panics in a Schedule callback and
// in a lane's Runner while a parked process drives the loop on its own
// stack. Run must re-raise each callback's own value on the caller's
// goroutine (recovering it here proves that), leave the engine runnable
// with the process parked and resumable, and reset its running flag.
func TestCallbackPanicOnProcessGoroutine(t *testing.T) {
	type boom struct{ kind string }
	for _, kind := range []string{"schedule", "runner"} {
		t.Run(kind, func(t *testing.T) {
			e := NewEngine(1)
			defer e.Close()
			l := &runLog{e: e}
			want := &boom{kind}
			e.Spawn("p", func(p *Proc) {
				l.add("p")
				p.Sleep(10) // p now fires the callback at 5 on its own stack
				l.add("p")
			})
			fire := func() {
				l.add(kind)
				panic(want)
			}
			if kind == "schedule" {
				e.Schedule(5, fire)
			} else {
				e.NewLane().Book(5, runnerFunc(fire))
			}
			if got := runRecover(e); got != want {
				t.Fatalf("Run panicked with %v, want the callback's own value %v", got, want)
			}
			if e.running {
				t.Fatal("running still set after the re-raised panic")
			}
			l.check(t, "p@0 "+kind+"@5")
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			l.check(t, "p@0 "+kind+"@5 p@10")
		})
	}
}

// TestProcessPanicAfterHandoff panics in a process that another
// process, not RunUntil's caller, handed control to.
func TestProcessPanicAfterHandoff(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	l := &runLog{e: e}
	var wl WaitList
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5)
		l.add("waker")
		wl.WakeOne()
		p.Sleep(5)
		l.add("waker")
	})
	e.Spawn("bad", func(p *Proc) {
		wl.Wait(p)
		l.add("bad")
		panic("boom")
	})
	const want = `sim: process "bad" panicked: boom`
	if got := runRecover(e); got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
	if e.running {
		t.Fatal("running still set after the re-raised panic")
	}
	l.check(t, "waker@5 bad@5")
}

// TestGoexitPassesControlOn ends a process with runtime.Goexit while
// Run drives the engine on a goroutine of its own. The process's
// deferred calls run and that goroutine exits with it, leaving the rest
// of the run parked; a second Run, here on the test's goroutine,
// carries on from there.
func TestGoexitPassesControlOn(t *testing.T) {
	e := NewEngine(1)
	l := &runLog{e: e}
	a := e.Spawn("a", func(p *Proc) {
		defer l.add("a-defer")
		l.add("a")
		p.Sleep(5)
		runtime.Goexit()
	})
	b := e.Spawn("b", func(p *Proc) {
		l.add("b")
		p.Sleep(10)
		l.add("b")
	})
	exited := make(chan bool)
	go func() {
		returned := false
		defer func() { exited <- returned }()
		_ = e.Run()
		returned = true
	}()
	if <-exited {
		t.Fatal("Run returned; want its goroutine to exit with the process")
	}
	l.check(t, "a@0 b@0 a-defer@5")
	if !a.Done() || b.Done() || e.Live() != 1 {
		t.Fatalf("after Goexit: a done %v, b done %v, Live %d; want true, false, 1",
			a.Done(), b.Done(), e.Live())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	l.check(t, "a@0 b@0 a-defer@5 b@10")
	if !b.Done() || e.Live() != 0 {
		t.Fatalf("b done %v, Live %d after the second Run", b.Done(), e.Live())
	}
}

// splitScenario mixes sleeping processes, wait-list blocking and plain
// callbacks, with equal-time events, so a run has processes parked
// mid-Sleep and mid-Wait at most instants.
func splitScenario(e *Engine, l *runLog) {
	var wl WaitList
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(7)
			l.add("s")
		}
		wl.WakeOne()
	})
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			wl.Wait(p)
			l.add("w")
		}
		p.Sleep(3)
		l.add("w")
	})
	e.Schedule(12, func() {
		l.add("cb")
		wl.WakeAll()
	})
	e.Schedule(28, func() { l.add("cb") })
}

// TestRunUntilSplitMatchesRun stops a run at several deadlines, with
// processes mid-Sleep and mid-WaitList.Wait, and checks that the pieces
// fire the same sequence, with the same trace records, as one Run.
func TestRunUntilSplitMatchesRun(t *testing.T) {
	whole := NewEngine(1)
	wholeRec := trace.NewRecorder()
	whole.SetTracer(wholeRec)
	wl := &runLog{e: whole}
	splitScenario(whole, wl)
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "s@7 cb@12 w@12 s@14 s@21 cb@28 s@28 w@28 w@31"
	wl.check(t, want)

	split := NewEngine(1)
	splitRec := trace.NewRecorder()
	split.SetTracer(splitRec)
	sl := &runLog{e: split}
	splitScenario(split, sl)
	for _, d := range []Time{0, 5, 7, 7, 11, 12, 20, 28, 30} {
		if err := split.RunUntil(d); err != nil {
			t.Fatal(err)
		}
		if split.Now() != d {
			t.Fatalf("RunUntil(%d) left the clock at %d", d, split.Now())
		}
	}
	if err := split.Run(); err != nil {
		t.Fatal(err)
	}
	sl.check(t, want)
	if !reflect.DeepEqual(wholeRec.Events(), splitRec.Events()) {
		t.Fatal("split run emitted different trace records from the whole run")
	}
}

// TestStopFromProcess stops the run from inside a process while others
// are parked, then resumes it with a second Run.
func TestStopFromProcess(t *testing.T) {
	e := NewEngine(1)
	l := &runLog{e: e}
	var wl WaitList
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(10)
		l.add("stop")
		e.Stop()
		p.Sleep(5)
		l.add("stopper")
	})
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(20)
		l.add("sleeper")
		wl.WakeAll()
	})
	e.Spawn("waiter", func(p *Proc) {
		wl.Wait(p)
		l.add("waiter")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	l.check(t, "stop@10")
	if e.Live() != 3 {
		t.Fatalf("Live = %d after Stop, want 3", e.Live())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	l.check(t, "stop@10 stopper@15 sleeper@20 waiter@20")
}

// TestEngineInsideProcess runs a whole engine to completion inside a
// process of another engine, interleaved with that engine's other
// processes.
func TestEngineInsideProcess(t *testing.T) {
	outer := NewEngine(1)
	l := &runLog{e: outer}
	outer.Spawn("host", func(p *Proc) {
		p.Sleep(5)
		inner := NewEngine(2)
		il := &runLog{e: inner}
		for _, name := range []string{"x", "y"} {
			inner.Spawn(name, func(q *Proc) {
				il.add(name)
				q.Sleep(3)
				il.add(name)
			})
		}
		if err := inner.Run(); err != nil {
			t.Error(err)
		}
		l.add("host[" + strings.Join(il.got, " ") + "]")
		p.Sleep(5)
		l.add("host")
	})
	outer.Spawn("peer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(4)
			l.add("peer")
		}
	})
	if err := outer.Run(); err != nil {
		t.Fatal(err)
	}
	l.check(t, "peer@4 host[x@0 y@0 x@3 y@3]@5 peer@8 host@10 peer@12")
}

// TestCloseEndsParkedProcesses closes a stopped engine that still has a
// sleeping process, a process blocked on a WaitList and one that never
// started: each ends, deferred calls first, and Close waits for them.
// The engine runs and closes on the test's goroutine, and then runs on
// one goroutine and closes from another.
func TestCloseEndsParkedProcesses(t *testing.T) {
	here := func(f func()) { f() }
	elsewhere := func(f func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		<-done
	}
	for _, c := range []struct {
		name       string
		run, close func(func())
	}{
		{"one goroutine", here, here},
		{"other goroutines", elsewhere, elsewhere},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			l := &runLog{e: e}
			var wl WaitList
			e.Spawn("sleeper", func(p *Proc) {
				defer l.add("sleeper-defer")
				for {
					p.Sleep(10)
				}
			})
			e.Spawn("waiter", func(p *Proc) {
				defer l.add("waiter-defer")
				wl.Wait(p)
				l.add("woken")
			})
			e.Schedule(25, e.Stop)
			var err error
			c.run(func() { err = e.Run() })
			if err != nil {
				t.Fatal(err)
			}
			unstarted := e.Spawn("unstarted", func(*Proc) { l.add("unstarted") })
			c.close(e.Close)
			l.check(t, "sleeper-defer@25 waiter-defer@25")
			if e.Live() != 0 || !unstarted.Done() {
				t.Fatalf("Live = %d, unstarted done = %v after Close", e.Live(), unstarted.Done())
			}
			e.Close() // a second Close is a no-op
			l.check(t, "sleeper-defer@25 waiter-defer@25")
		})
	}
}

// TestCloseDuringRunPanics calls Close from inside a running process.
func TestCloseDuringRunPanics(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	e.Spawn("closer", func(*Proc) { e.Close() })
	const want = `sim: process "closer" panicked: sim: Close during Run`
	if got := runRecover(e); got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
}

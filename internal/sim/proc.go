//go:build go1.23

// The build line raises this file's language version to go1.23, the
// first with package iter, while the module stays at go 1.22. A
// toolchain older than go1.23 leaves Proc undefined and fails to build
// the package rather than running another engine.

package sim

import (
	"fmt"
	"iter"

	"nscc/internal/trace"
	"nscc/internal/xrand"
)

// Proc is a cooperative simulated process: a coroutine (iter.Pull)
// that runs only while it holds control. The function passed to Spawn
// receives the Proc and may call its blocking methods (Sleep, and
// WaitList's Wait and WaitTimeout); each such call parks the process
// and runs the event loop on its stack until the next process step is
// due. When that step is its own, the process simply carries on;
// otherwise it yields to RunUntil's resume loop, naming the process to
// resume next.
//
// Proc methods must only be called from within the process's own
// function; the engine guarantees only one process runs at a time.
type Proc struct {
	eng  *Engine
	id   int
	name string
	rng  *xrand.Rand

	// resume switches to the process's coroutine until it yields or
	// ends; stop ends a parked process (see Close). yield, called on
	// the process's own stack, switches back to resume's caller.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	done   bool
}

// closing is the panic value park unwinds a process with when Close
// stops it; finish recovers it.
type closing struct{}

// Spawn creates a process named name running fn, starting at the current
// virtual time. Processes spawned at the same instant start in spawn
// order.
//
// A process that calls runtime.Goexit (a test's t.FailNow, say) ends
// with its deferred calls run, and the goroutine that called Run exits
// too: iter.Pull passes a coroutine's Goexit on to the goroutine that
// resumed it. The rest of the run stays parked, so a later Run, on any
// goroutine, carries on from there.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:  e,
		id:   len(e.procs),
		name: name,
	}
	p.rng = e.rngFor(p.id)
	e.procs = append(e.procs, p)
	e.nlive++
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{TS: int64(e.now), Ph: trace.PhaseInstant,
			Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "proc_start"})
	}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.finish()
		fn(p)
		// fn returned: done is set here, before finish, so finish can
		// tell a return from runtime.Goexit.
		p.done = true
	})
	e.scheduleStep(e.now, p)
	return p
}

// finish runs on p's stack once its function has returned, panicked or
// called runtime.Goexit. After a return it runs the event loop on and
// names the next process due; after a panic it names none and leaves
// the panic for RunUntil to re-raise. After a Goexit, or when Close
// stopped p, it passes nothing on.
func (p *Proc) finish() {
	r := recover()
	e := p.eng
	returned := p.done
	p.done = true
	e.nlive--
	if e.closed {
		return
	}
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{TS: int64(e.now), Ph: trace.PhaseInstant,
			Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "proc_stop"})
	}
	switch {
	case r != nil:
		e.pval = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
	case returned:
		e.handoff = e.next(p)
	}
}

// park suspends the process until its next scheduled step.
func (p *Proc) park() {
	e := p.eng
	q := e.next(p)
	if q == p {
		return
	}
	e.handoff = q
	if !p.yield(struct{}{}) {
		panic(closing{})
	}
}

// wake schedules the process to resume at the current virtual time.
// It is called only by the WaitList wake paths, so the trace record is
// exactly "a blocked process was released".
func (p *Proc) wake() {
	if t := p.eng.tracer; t != nil {
		t.Emit(trace.Event{TS: int64(p.eng.now), Ph: trace.PhaseInstant,
			Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "wake"})
	}
	p.eng.scheduleStep(p.eng.now, p)
}

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// ID returns the process's spawn index, unique within its engine.
func (p *Proc) ID() int { return p.id }

// Name returns the process's name.
func (p *Proc) Name() string { return p.name }

// Rng returns the process's private deterministic random stream.
func (p *Proc) Rng() *xrand.Rand { return p.rng }

// Sleep advances the process's local progress by d of virtual time.
// Negative durations sleep zero time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleStep(p.eng.now.Add(d), p)
	p.park()
}

// SleepUntil parks the process until absolute time t (no-op if t is in
// the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.eng.scheduleStep(t, p)
	p.park()
}

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

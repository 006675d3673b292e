package sim

import (
	"fmt"

	"nscc/internal/trace"
	"nscc/internal/xrand"
)

// Proc is a cooperative simulated process. The function passed to Spawn
// receives the Proc and may call its blocking methods (Sleep, and the
// Wait methods of WaitList/Future/Barrier/Semaphore); each such call
// parks the goroutine and hands control back to the engine until the
// process is resumed at a later virtual time.
//
// Proc methods must only be called from within the process's own
// function; the engine guarantees only one process runs at a time.
type Proc struct {
	eng  *Engine
	id   int
	name string
	rng  *xrand.Rand

	resume chan struct{}
	yield  chan struct{}
	done   bool
	pval   interface{} // value recovered from a panic inside the process
	pstack bool        // whether pval is set
}

// Spawn creates a process named name running fn, starting at the current
// virtual time. Processes spawned at the same instant start in spawn
// order.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:    e,
		id:     len(e.procs),
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	p.rng = e.rngFor(p.id)
	e.procs = append(e.procs, p)
	e.nlive++
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{TS: int64(e.now), Ph: trace.PhaseInstant,
			Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "proc_start"})
	}
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				p.pval = r
				p.pstack = true
			}
			p.done = true
			e.nlive--
			p.yield <- struct{}{}
		}()
		fn(p)
	}()
	e.scheduleStep(e.now, p)
	return p
}

// step transfers control to p until it parks or finishes, then returns
// control to the engine loop. A panic inside the process is re-raised
// here so it surfaces on the engine's Run call.
func (e *Engine) step(p *Proc) {
	if p.done {
		return
	}
	prev := e.current
	e.current = p
	p.resume <- struct{}{}
	<-p.yield
	e.current = prev
	if p.done && e.tracer != nil {
		e.tracer.Emit(trace.Event{TS: int64(e.now), Ph: trace.PhaseInstant,
			Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "proc_stop"})
	}
	if p.pstack {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.pval))
	}
}

// park suspends the process until the engine resumes it.
func (p *Proc) park() {
	p.yield <- struct{}{}
	<-p.resume
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

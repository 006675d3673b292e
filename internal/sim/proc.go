package sim

import (
	"fmt"
	"runtime"

	"nscc/internal/trace"
	"nscc/internal/xrand"
)

// Proc is a cooperative simulated process. The function passed to Spawn
// receives the Proc and may call its blocking methods (Sleep, and
// WaitList's Wait and WaitTimeout); each such call parks the process,
// runs the event loop on its goroutine until the next process step is
// due, and hands control straight to that process (or simply carries
// on, when the step is this process's own).
//
// Proc methods must only be called from within the process's own
// function; the engine guarantees only one process runs at a time.
type Proc struct {
	eng  *Engine
	id   int
	name string
	rng  *xrand.Rand

	resume chan struct{}
	done   bool
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
	}
	p.rng = e.rngFor(p.id)
	e.procs = append(e.procs, p)
	e.nlive++
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{TS: int64(e.now), Ph: trace.PhaseInstant,
			Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "proc_start"})
	}
	go func() {
		defer p.finish()
		p.wait()
		fn(p)
	}()
	e.scheduleStep(e.now, p)
	return p
}

// finish runs on p's goroutine once its function has returned, panicked
// or called runtime.Goexit, and passes control on: to the next process
// due, to RunUntil's caller with the panic when p panicked, or back to
// Close when Close ended p.
func (p *Proc) finish() {
	r := recover()
	e := p.eng
	p.done = true
	e.nlive--
	if !e.closed {
		if e.tracer != nil {
			e.tracer.Emit(trace.Event{TS: int64(e.now), Ph: trace.PhaseInstant,
				Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "proc_stop"})
		}
		if r == nil {
			e.next(p)
			return
		}
		e.pval = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
	}
	e.done <- struct{}{}
}

// park suspends the process until its next scheduled step.
func (p *Proc) park() {
	if !p.eng.next(p) {
		p.wait()
	}
}

// wait blocks p's goroutine until control is handed to it. Close hands
// control over only to end the process.
func (p *Proc) wait() {
	<-p.resume
	if p.eng.closed {
		runtime.Goexit()
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

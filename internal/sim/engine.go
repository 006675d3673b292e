package sim

import (
	"errors"
	"fmt"
	"runtime"

	"nscc/internal/trace"
	"nscc/internal/xrand"
)

// Engine drives a discrete-event simulation. Events fire in virtual-time
// order (FIFO among equal times); processes spawned on the engine run
// cooperatively, one at a time, interleaved with event callbacks.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	q     eventQueue
	laned int      // lane bookings waiting behind their lane's queued head
	free  []*event // recycled event objects (see event's doc comment)
	seed  int64
	procs []*Proc
	nlive int // spawned but not yet finished processes

	running  bool
	stopReq  bool
	closed   bool
	deadline Time // the current RunUntil's deadline
	// handoff is the process a yielding process names for RunUntil's
	// resume loop to resume next; nil ends the run.
	handoff *Proc
	// pval is a panic raised on a process's stack, kept for RunUntil
	// to re-raise on its caller's goroutine.
	pval interface{}

	// tracer, when non-nil, receives process start/stop/block/wake and
	// event-fire records. Every emission site guards with a nil check,
	// so the disabled path costs one predicted branch and no
	// allocations.
	tracer trace.Tracer
}

// SetTracer installs (or, with nil, removes) the engine's tracer. The
// engine is the single owner of the run's tracer: the network, message,
// coherence, and application layers all reach it through their engine
// so one call instruments a whole simulated cluster.
func (e *Engine) SetTracer(t trace.Tracer) { e.tracer = t }

// Tracer returns the engine's tracer (nil when tracing is off).
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// Stop requests that the current Run/RunUntil return after the event
// being processed. It is the clean way to end a run whose event queue
// never drains (e.g. when a background traffic loader is active).
// Processes parked at that point stay parked, so a later Run resumes
// them; Close ends them instead.
func (e *Engine) Stop() { e.stopReq = true }

// NewEngine returns an engine whose clock starts at zero. All randomness
// used by processes derives from seed, so equal seeds give equal runs.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed: seed,
		free: make([]*event, 0, 128),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the engine's base random seed.
func (e *Engine) Seed() int64 { return e.seed }

// Schedule registers fn to run at absolute time at. Scheduling in the
// past is an error the engine reports by panicking: it indicates a
// causality bug in the model, not a recoverable condition.
func (e *Engine) Schedule(at Time, fn func()) EventHandle {
	ev := e.push(at)
	ev.fn = fn
	return EventHandle{ev, ev.seq}
}

// scheduleStep registers a resumption of p at absolute time at, without
// the closure allocation Schedule would need. This is the path every
// Sleep and every WaitList wake takes.
func (e *Engine) scheduleStep(at Time, p *Proc) {
	e.push(at).proc = p
}

// push takes an event object from the free list (or allocates one),
// stamps it, and queues it. fn/proc are left for the caller to fill.
func (e *Engine) push(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.eng = at, e.seq, e
	e.seq++
	e.q.insert(ev)
	return ev
}

// Pending reports the number of events currently queued, every
// outstanding lane booking included. Canceled events are reclaimed
// eagerly, so this is the genuinely pending population, not an upper
// bound.
func (e *Engine) Pending() int { return e.q.len() + e.laned }

// recycle returns a fired or skipped event to the free list. The
// object's seq stays behind until the next push re-stamps it, which is
// what lets stale EventHandles detect that their event is gone.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.proc = nil
	e.free = append(e.free, ev)
}

// After registers fn to run d from now.
func (e *Engine) After(d Duration, fn func()) EventHandle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// ErrDeadlock is returned by Run when no events remain but live
// processes are still blocked.
var ErrDeadlock = errors.New("sim: deadlock: no events pending but processes are blocked")

// Run executes events until none remain. It returns ErrDeadlock
// (wrapped with the names of the stuck processes) if live processes are
// still parked when the event queue drains, and nil otherwise.
func (e *Engine) Run() error { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= deadline, then stops with
// the clock advanced to the last fired event (or the deadline if any
// later events remain pending). Deadlock is only reported when the whole
// queue drained, i.e. when deadline is Forever.
//
// RunUntil is the resume loop: it runs the event loop until it pops a
// process's step, resumes that process, and then resumes whichever
// process the yielding one names, until one names none. A panic raised
// on a process's stack, by the process itself or by a callback it was
// firing, is re-raised here.
func (e *Engine) RunUntil(deadline Time) error {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.deadline = deadline
	for p, n := e.next(nil), 1; p != nil; p, n = e.handoff, n+1 {
		// Coroutine switches never enter the Go scheduler. Without a
		// regular Gosched a GOMAXPROCS=1 sweep never does either, and
		// the GC's mark worker apparently starves: fig3_bayes's
		// cells_per_s fell 8.0% (4 of 4 alternating benchmark pairs,
		// 2-vCPU host).
		if n%64 == 0 {
			runtime.Gosched()
		}
		e.handoff = nil
		p.resume()
	}
	if v := e.pval; v != nil {
		e.pval = nil
		panic(v)
	}
	if deadline == Forever && e.q.len() == 0 && e.nlive > 0 {
		return fmt.Errorf("%w: %s", ErrDeadlock, e.stuckProcs())
	}
	return nil
}

// next runs the event loop on the stack that holds control: that of
// RunUntil's caller (self == nil) or of process self, which has just
// parked or finished. It fires callbacks inline until it pops the step
// of a live process and returns that process, which may be self: then
// self carries on with no switch at all. It returns nil when the run
// ends, or when a callback fired on self's stack panics; the panic is
// kept for RunUntil, and self stays parked and resumable.
func (e *Engine) next(self *Proc) (due *Proc) {
	if self != nil {
		// A callback panicking on a process's stack must not unwind
		// through the process's own frames: end the run and re-raise
		// the value from RunUntil.
		defer func() {
			if r := recover(); r != nil {
				e.pval = r
				due = nil
			}
		}()
	}
	for e.q.len() > 0 {
		if e.stopReq {
			e.stopReq = false
			break
		}
		if e.q.peek().at > e.deadline {
			e.now = e.deadline
			break
		}
		ev := e.q.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		if e.tracer != nil {
			e.tracer.Emit(trace.Event{TS: int64(e.now), Ph: trace.PhaseInstant,
				Pid: trace.PidSim, Cat: "sim", Name: "event", K1: "seq", V1: int64(ev.seq)})
		}
		if l := ev.lane; l != nil {
			l.next().Run()
			continue
		}
		// Detach the payload and recycle before firing: the callback may
		// schedule (and thereby reuse) freely.
		fn, p := ev.fn, ev.proc
		e.recycle(ev)
		if p == nil {
			fn()
		} else if !p.done {
			return p
		}
	}
	return nil
}

// Close ends every unfinished process: each parked one is stopped, so
// it unwinds with its deferred calls run, and one that never started is
// marked done without running. A process's deferred calls must not
// block on the engine. Close releases the coroutines, and everything
// they keep reachable, of a run that ended with processes still parked,
// such as one ended by Stop while a background loader sleeps. It may be
// called from any goroutine once Run has returned. Close panics if
// called during Run; calling it again is a no-op. The engine must not
// be used after Close.
func (e *Engine) Close() {
	if e.running {
		panic("sim: Close during Run")
	}
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procs {
		if !p.done {
			p.stop()
			if !p.done { // never started, so finish never ran
				p.done = true
				e.nlive--
			}
		}
	}
}

func (e *Engine) stuckProcs() string {
	s := ""
	for _, p := range e.procs {
		if !p.done {
			if s != "" {
				s += ", "
			}
			s += p.name
		}
	}
	return s
}

// Live reports the number of spawned processes that have not finished.
func (e *Engine) Live() int { return e.nlive }

// NewRng derives a deterministic random stream from the engine seed and
// the given tag. Processes use this internally (tagged by spawn index);
// model components that need randomness outside any process (e.g. a
// network's backoff jitter) should call it with a distinct tag.
func (e *Engine) NewRng(tag int) *xrand.Rand { return e.rngFor(tag) }

// rngFor derives a per-process deterministic random stream: math/rand's
// stream for the scrambled seed, drawn through the concrete xrand type.
func (e *Engine) rngFor(id int) *xrand.Rand {
	// SplitMix64-style scramble so nearby ids give unrelated streams.
	z := uint64(e.seed) + uint64(id+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return xrand.New(int64(z))
}

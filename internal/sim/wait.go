package sim

import "nscc/internal/trace"

// WaitList is the engine's basic blocking primitive: a FIFO set of
// parked processes that other code can wake. pvm's mailboxes and send
// windows, and through them the DSM's Global_Read blocking, are built
// on it.
type WaitList struct {
	waiters []*Proc
}

// Wait parks p until another party calls WakeOne or WakeAll.
func (w *WaitList) Wait(p *Proc) {
	if t := p.eng.tracer; t != nil {
		t.Emit(trace.Event{TS: int64(p.eng.now), Ph: trace.PhaseInstant,
			Pid: trace.PidSim, Tid: p.id, Cat: "sim", Name: "block"})
	}
	w.waiters = append(w.waiters, p)
	p.park()
}

// WaitTimeout parks p until another party wakes it or until absolute
// virtual time deadline, whichever comes first. It reports true for a
// genuine wake and false for a timeout. A deadline at or before the
// current time returns false immediately without parking.
//
// The timeout is implemented as a scheduled event that removes p from
// the wait list before resuming it, so a later WakeOne can never
// target an already-timed-out process; conversely a genuine wake
// cancels the timer, so a process can never be resumed twice.
func (w *WaitList) WaitTimeout(p *Proc, deadline Time) bool {
	if deadline <= p.eng.now {
		return false
	}
	timedOut := false
	h := p.eng.Schedule(deadline, func() {
		for i, q := range w.waiters {
			if q == p {
				copy(w.waiters[i:], w.waiters[i+1:])
				w.waiters = w.waiters[:len(w.waiters)-1]
				timedOut = true
				p.wake()
				return
			}
		}
	})
	w.Wait(p)
	h.Cancel()
	return !timedOut
}

// WakeOne wakes the longest-waiting process, reporting whether there was
// one. The woken process resumes via a scheduled event at the current
// virtual time, after the caller yields control.
func (w *WaitList) WakeOne() bool {
	if len(w.waiters) == 0 {
		return false
	}
	p := w.waiters[0]
	copy(w.waiters, w.waiters[1:])
	w.waiters = w.waiters[:len(w.waiters)-1]
	p.wake()
	return true
}

// WakeAll wakes every waiting process in FIFO order and returns how many
// were woken.
func (w *WaitList) WakeAll() int {
	n := len(w.waiters)
	for _, p := range w.waiters {
		p.wake()
	}
	w.waiters = w.waiters[:0]
	return n
}

// Len reports the number of waiting processes.
func (w *WaitList) Len() int { return len(w.waiters) }

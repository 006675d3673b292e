package sim

// future, semaphore and barrier are the classic clients of WaitList. No
// simulation layer needs them (pvm's mailboxes and send windows wait on
// WaitList directly), so they live here, where the tests drive
// WaitList's FIFO wake order, WakeAll and re-checked wait loops through
// real waiters.

// future is a one-shot value that processes can block on.
type future struct {
	done bool
	val  interface{}
	wl   WaitList
}

// Complete resolves the future, waking all waiters. Completing twice
// panics: a future is a one-shot rendezvous and double completion means
// the model lost track of ownership.
func (f *future) Complete(val interface{}) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = val
	f.wl.WakeAll()
}

// Done reports whether the future has been completed.
func (f *future) Done() bool { return f.done }

// Value returns the completed value (nil if not yet complete).
func (f *future) Value() interface{} { return f.val }

// Wait blocks p until the future completes and returns its value.
func (f *future) Wait(p *Proc) interface{} {
	for !f.done {
		f.wl.Wait(p)
	}
	return f.val
}

// semaphore is a counting semaphore with FIFO fairness.
type semaphore struct {
	avail int
	wl    WaitList
}

// newSemaphore returns a semaphore with n initial permits.
func newSemaphore(n int) *semaphore { return &semaphore{avail: n} }

// Acquire takes one permit, blocking p until one is available.
func (s *semaphore) Acquire(p *Proc) {
	for s.avail == 0 {
		s.wl.Wait(p)
	}
	s.avail--
}

// TryAcquire takes a permit without blocking, reporting success.
func (s *semaphore) TryAcquire() bool {
	if s.avail == 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns one permit and wakes one waiter if any.
func (s *semaphore) Release() {
	s.avail++
	s.wl.WakeOne()
}

// Available reports the current number of permits.
func (s *semaphore) Available() int { return s.avail }

// barrier synchronizes a fixed party of n processes. The last arriving
// process releases the rest; the barrier then resets for reuse.
type barrier struct {
	n       int
	arrived int
	gen     int
	wl      WaitList
}

// newBarrier returns a reusable barrier for n parties. n must be >= 1.
func newBarrier(n int) *barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	return &barrier{n: n}
}

// Arrive blocks p until all n parties have arrived in the current
// generation. It returns the generation index that just completed.
func (b *barrier) Arrive(p *Proc) int {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.wl.WakeAll()
		return gen
	}
	for b.gen == gen {
		b.wl.Wait(p)
	}
	return gen
}

// Parties returns the barrier's party count.
func (b *barrier) Parties() int { return b.n }

package sim

import "fmt"

// Lane is a FIFO of callbacks booked at times that never decrease, such
// as the deliveries of one network link, which lands its frames in the
// order it sent them. A booking takes its (time, seq) key when it is
// made, exactly as Schedule does, but only the lane's earliest booking
// sits in the event queue; the rest wait in the lane's ring, and each
// enters the queue when the one before it fires. Because a lane's keys
// only grow, that is the order queueing every booking at once would
// give, while the queue holds one entry per busy lane instead of one per
// booked frame.
//
// A full ring doubles and is kept, so a steady-state booking allocates
// nothing.
type Lane struct {
	ev   event     // the queue entry of the earliest booking
	ring []booking // outstanding bookings from head on; len is a power of two or 0
	head int
	n    int
}

// booking is one outstanding callback of a lane with its queue key.
type booking struct {
	at  Time
	seq uint64
	r   Runner
}

// NewLane returns an empty lane on e.
func (e *Engine) NewLane() *Lane {
	l := &Lane{}
	l.ev.eng, l.ev.lane, l.ev.idx = e, l, -1
	return l
}

// Book registers r.Run() to fire at absolute time at, after every
// earlier booking of the lane. Booking in the past, or before the
// lane's latest outstanding booking, is a causality bug in the model
// and panics.
func (l *Lane) Book(at Time, r Runner) {
	e := l.ev.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: book at %v before now %v", at, e.now))
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	mask := len(l.ring) - 1
	if l.n > 0 {
		if last := l.ring[(l.head+l.n-1)&mask].at; at < last {
			panic(fmt.Sprintf("sim: book at %v before the lane's booking at %v", at, last))
		}
		e.laned++
	} else {
		l.ev.at, l.ev.seq = at, e.seq
		e.q.insert(&l.ev)
	}
	l.ring[(l.head+l.n)&mask] = booking{at, e.seq, r}
	l.n++
	e.seq++
}

// next removes the earliest booking, whose queue entry the engine has
// just popped, queues the booking after it, and returns the removed
// booking's runner.
func (l *Lane) next() Runner {
	b := &l.ring[l.head]
	r := b.r
	*b = booking{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		b = &l.ring[l.head]
		l.ev.at, l.ev.seq = b.at, b.seq
		l.ev.eng.q.insert(&l.ev)
		l.ev.eng.laned--
	}
	return r
}

// grow doubles the ring (to 8 from empty), keeping the bookings in
// order from index 0.
func (l *Lane) grow() {
	ring := make([]booking, max(8, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

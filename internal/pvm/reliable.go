package pvm

import (
	"nscc/internal/sim"
	"nscc/internal/trace"
)

// This file is the reliable-delivery sublayer: sequence-numbered
// envelopes, receiver acks, sender retransmission with exponential
// backoff in simulated time, duplicate suppression, and per-(src,dst)
// in-order release. It sits entirely between the fabric handler and
// the task queue, so the application-visible API (Send/Multicast/Recv)
// is unchanged; Config.Reliable switches it on.
//
// PVM's native transport was unreliable UDP between daemons — the
// paper's applications tolerate that because a lost update only ages a
// cached value. The reliable mode models the alternative the paper
// argues against paying for: a transport that guarantees delivery and
// order at the cost of acks, retransmission latency, and head-of-line
// blocking. Having both in the simulator lets the experiments price
// that trade under injected faults.

// ackSize is the wire size charged for an acknowledgement frame (a
// seq number plus minimal framing).
const ackSize = 16

// retransmitTimeout is the initial ack deadline, calibrated to the
// Ethernet's latency scale; each retry doubles it. maxRetries bounds
// retransmissions per (message, destination): 12 doublings span about
// 80 virtual seconds of backoff, far beyond any injected fault window.
// After that the transport abandons the copy and counts it.
const (
	retransmitTimeout = 20 * sim.Millisecond
	maxRetries        = 12
)

// envelope wraps one application message with its per-destination
// sequence numbers. A multicast stays one frame on the shared medium:
// every receiver finds its own (src,dst)-stream sequence number under
// its task id. Retransmissions reuse the same envelope as unicasts.
type envelope struct {
	msg  *Message
	seqs map[int]int64 // dst task id -> seq on the (src,dst) stream
}

// ackFrame acknowledges receipt of sequence seq by task from.
type ackFrame struct {
	from int
	seq  int64
}

// pendKey identifies one unacknowledged (destination, sequence) pair.
type pendKey struct {
	dst int
	seq int64
}

// pendingTx is one destination's unacknowledged transmission and its
// retransmission state.
type pendingTx struct {
	env     *envelope
	dst     int
	seq     int64
	tries   int
	backoff sim.Duration
	timer   sim.EventHandle
}

// relState is a task's reliable-transport state, allocated only when
// the machine runs with Config.Reliable.
type relState struct {
	nextSeq map[int]int64              // sender: next seq per destination
	pending map[pendKey]*pendingTx     // sender: unacked transmissions
	rxNext  map[int]int64              // receiver: next expected seq per source
	rxOO    map[int]map[int64]*Message // receiver: out-of-order buffer per source

	retransmits int64
	abandoned   int64
	dups        int64
}

func (t *Task) rel() *relState {
	if t.relst == nil {
		t.relst = &relState{
			nextSeq: map[int]int64{},
			pending: map[pendKey]*pendingTx{},
			rxNext:  map[int]int64{},
			rxOO:    map[int]map[int64]*Message{},
		}
	}
	return t.relst
}

// wrapReliable assigns per-destination sequence numbers to msg and
// returns the envelope to put on the wire in place of the bare
// message. Called from the send path with dsts already validated.
func (t *Task) wrapReliable(dsts []int, msg *Message) *envelope {
	r := t.rel()
	env := &envelope{msg: msg, seqs: make(map[int]int64, len(dsts))}
	for _, dst := range dsts {
		seq := r.nextSeq[dst]
		r.nextSeq[dst] = seq + 1
		env.seqs[dst] = seq
	}
	return env
}

// armRetransmit registers the per-destination retransmission timers
// for an envelope just offered to the fabric. The first timer fires
// retransmitTimeout after the send; each retry doubles the backoff.
func (t *Task) armRetransmit(dsts []int, env *envelope) {
	r := t.rel()
	for _, dst := range dsts {
		p := &pendingTx{env: env, dst: dst, seq: env.seqs[dst],
			backoff: retransmitTimeout}
		r.pending[pendKey{p.dst, p.seq}] = p
		p.timer = t.m.eng.Schedule(t.m.eng.Now().Add(p.backoff),
			func() { t.retransmit(p) })
	}
}

// retransmit fires when a destination has not acknowledged in time:
// the envelope is re-offered to the fabric as a unicast (no task CPU
// charge and no send-window interaction — the model is the transport
// daemon retrying, not the application resending) and the timer is
// re-armed with doubled backoff, up to maxRetries attempts.
func (t *Task) retransmit(p *pendingTx) {
	r := t.rel()
	k := pendKey{p.dst, p.seq}
	if _, ok := r.pending[k]; !ok {
		return // acked between timer fire and this call
	}
	if p.tries >= maxRetries {
		r.abandoned++
		delete(r.pending, k)
		t.traceRel("retx_abandon", p.dst, p.seq)
		return
	}
	p.tries++
	p.backoff *= 2
	r.retransmits++
	t.m.serRetx.Add(t.m.eng.Now(), 1)
	t.traceRel("retx", p.dst, p.seq)
	t.m.net.Unicast(t.node, t.m.tasks[p.dst].node, p.env.msg.Size, p.env, nil)
	p.timer = t.m.eng.Schedule(t.m.eng.Now().Add(p.backoff),
		func() { t.retransmit(p) })
}

// reliableArrival is the fabric handler in reliable mode: it
// dispatches transport frames (acks and envelopes) and never delivers
// a payload to the application out of sequence.
func (t *Task) reliableArrival(payload interface{}) {
	switch f := payload.(type) {
	case *ackFrame:
		t.handleAck(f)
	case *envelope:
		t.handleEnvelope(f)
	}
}

// handleAck clears the (dst,seq) pending entry and cancels its timer.
func (t *Task) handleAck(f *ackFrame) {
	r := t.rel()
	k := pendKey{f.from, f.seq}
	if p, ok := r.pending[k]; ok {
		p.timer.Cancel()
		delete(r.pending, k)
	}
}

// handleEnvelope acknowledges, suppresses duplicates, and releases
// messages to the task queue in per-source sequence order.
func (t *Task) handleEnvelope(env *envelope) {
	seq, ok := env.seqs[t.id]
	if !ok {
		return // stray retransmit of a frame not addressed to this task
	}
	src := env.msg.Src
	// Ack unconditionally — for a duplicate, the previous ack may have
	// been the frame the network lost.
	t.m.net.Unicast(t.node, t.m.tasks[src].node, ackSize, &ackFrame{from: t.id, seq: seq}, nil)
	r := t.rel()
	if seq < r.rxNext[src] {
		r.dups++
		t.traceRel("dup_suppressed", src, seq)
		return
	}
	if _, buffered := t.srcOO(src)[seq]; buffered {
		r.dups++
		t.traceRel("dup_suppressed", src, seq)
		return
	}
	if seq != r.rxNext[src] {
		t.srcOO(src)[seq] = env.msg
		return
	}
	r.rxNext[src] = seq + 1
	t.deliverReliable(env.msg)
	oo := t.srcOO(src)
	for {
		m, ok := oo[r.rxNext[src]]
		if !ok {
			break
		}
		delete(oo, r.rxNext[src])
		r.rxNext[src]++
		t.deliverReliable(m)
	}
}

func (t *Task) srcOO(src int) map[int64]*Message {
	r := t.rel()
	if r.rxOO[src] == nil {
		r.rxOO[src] = map[int64]*Message{}
	}
	return r.rxOO[src]
}

// deliverReliable releases one message to the application. The
// Message is copied first: the original is shared by every multicast
// receiver and by retransmissions, which arrive at different times.
// The copy is a pooled object whose one share is this receiver's (the
// original stays with the transport).
func (t *Task) deliverReliable(orig *Message) {
	msg := t.m.getMsg()
	*msg = *orig
	msg.refs = 1
	t.arrive(0, msg, 0)
}

// traceRel emits one reliable-transport instant (nil-tracer safe).
func (t *Task) traceRel(name string, peer int, seq int64) {
	if tr := t.m.eng.Tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(t.m.eng.Now()), Ph: trace.PhaseInstant,
			Pid: trace.PidPVM, Tid: t.id, Cat: "pvm", Name: name,
			K1: "peer", V1: int64(peer), K2: "seq", V2: seq})
	}
}

// RecvTimeout is Recv with a deadline: it blocks until a message
// matching (src, tag) is available — returning and charging it like
// Recv — or until d of virtual time has passed, returning nil. A
// non-positive d polls like NRecv.
func (t *Task) RecvTimeout(src, tag int, d sim.Duration) *Message {
	deadline := t.m.eng.Now().Add(d)
	for {
		if msg := t.take(src, tag); msg != nil {
			t.charge(msg)
			return msg
		}
		if !t.wl.WaitTimeout(t.proc, deadline) {
			// Timed out; a message may still have landed in the same
			// instant the timer fired, so take one last look.
			if msg := t.take(src, tag); msg != nil {
				t.charge(msg)
				return msg
			}
			return nil
		}
	}
}

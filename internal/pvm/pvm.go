// Package pvm provides the message-passing layer of the reproduction: a
// PVM-3-flavoured library (task spawn, tagged typed messages, blocking
// and non-blocking receive with wildcard matching, broadcast) running on
// the simulated cluster. The paper ran its shared-memory veneer and the
// Global_Read macros directly above PVM on the IBM SP2 (§4.1); package
// core does the same above this package.
package pvm

import (
	"fmt"

	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// Any is the wildcard value for Recv/NRecv source and tag matching,
// mirroring PVM's -1.
const Any = -1

// Message is a delivered message as seen by a receiving task.
type Message struct {
	Src    int         // sending task id
	Tag    int         // message tag
	Data   interface{} // payload (shared by reference: senders must not mutate)
	Size   int         // payload size in bytes, as charged to the network
	SentAt sim.Time    // virtual time the send was issued
	// ArrivedAt is the virtual time the frame left the network. A
	// multicast's receivers share one *Message, so it holds the latest
	// delivery's time and is meaningful only inside ArrivalHook.
	ArrivedAt sim.Time

	// Aux carries an opaque per-message annotation attached by a
	// SendHook observer (the simrace checker stamps its vector clock
	// here). Reliable-mode delivery copies share it; the message layer
	// itself never touches it.
	Aux interface{}

	// refs counts the deliveries of the message that their receivers
	// have not yet finished with. Each delivery's share is released when
	// its receiving task performs its *next* dequeue (see Machine). A
	// reliable-mode original is never delivered itself (each receiver
	// gets a copy) and keeps refs at zero.
	refs int
}

// Retain takes n more delivery shares of the message, and of its Data
// if Data counts shares too (has a Retain method). A fabric that
// delivers a frame more than once, as the fault injector does when it
// duplicates one, calls it before the extra delivery, so the message
// and its payload outlive every receive that hands them out.
func (msg *Message) Retain(n int) {
	msg.refs += n
	if d, ok := msg.Data.(interface{ Retain(int) }); ok {
		d.Retain(n)
	}
}

// Config carries the software overheads of the messaging layer. These
// model the user-space packing/unpacking and protocol costs that, on the
// paper's platform, made Ethernet message latency "poorer than in
// high-speed parallel computer interconnection networks".
type Config struct {
	SendOverhead sim.Duration // CPU time charged to the sender per message
	RecvOverhead sim.Duration // fixed CPU time charged to the receiver per dequeued message
	// RecvPerByte is the size-proportional unpacking cost (copy +
	// byte-order conversion, pvm_upk*). On a flooded network this is
	// what makes uncontrolled senders hurt everyone: every delivered
	// copy costs its receiver real CPU time, so a flood steals the
	// computation it was supposed to overlap.
	RecvPerByte sim.Duration
	// SendWindow bounds each task's frames in flight (queued or on the
	// wire): a sender at the window blocks until the bus drains one.
	// The default is 0 — unlimited — matching PVM semantics: pvm_send
	// returns as soon as the message is buffered, and daemon buffers
	// grow without bound, which is exactly how an uncontrolled
	// asynchronous program floods the network (§1). A finite window
	// models a transport with flow control (TCP-style backpressure) and
	// is used by the ablation benchmarks: it is a *transport-level*
	// remedy to compare against the paper's *program-level* Global_Read
	// control.
	SendWindow int
	// Reliable turns on sequence-numbered delivery: every message
	// carries a per-(src,dst) sequence number, receivers acknowledge
	// and release messages in order (suppressing duplicates), and
	// senders retransmit unacknowledged messages with exponential
	// backoff in simulated time. Off by default — plain PVM over UDP
	// could lose, reorder and duplicate, and the paper's applications
	// are built to tolerate exactly that.
	Reliable bool
	// Pooling is ignored: every machine pools its messages (see
	// Machine). The field stays only so that code which still sets it
	// compiles.
	Pooling bool
}

// DefaultConfig returns PVM-over-Ethernet-scale software overheads.
func DefaultConfig() Config {
	return Config{
		SendOverhead: 400 * sim.Microsecond,
		RecvOverhead: 200 * sim.Microsecond,
		RecvPerByte:  400 * sim.Nanosecond,
	}
}

// Machine is a set of communicating tasks on one simulated
// interconnect (the shared-Ethernet bus or the crossbar switch).
//
// A machine recycles its Message objects through a free list, so the
// steady-state send/receive path allocates nothing. That sets the
// ownership rule: a received *Message (and its Data) is valid only
// until the receiving task's next Recv/NRecv/RecvTimeout, so receivers
// copy out what they keep. Each delivery holds one share of the
// message, and a delivery made twice takes one more (Message.Retain).
type Machine struct {
	eng   *sim.Engine
	net   netsim.Fabric
	cfg   Config
	tasks []*Task

	// ArrivalHook, if set, observes every message at network arrival
	// (before the receiving task dequeues it). The warp meter plugs in
	// here, matching the paper's "measurements of warp were done above
	// PVM, for all the messages".
	ArrivalHook func(dst int, m *Message)

	// SendHook, if set, observes every message as the sender issues it —
	// the symmetric partner of ArrivalHook. A multicast fires the hook
	// once (one logical message); each delivery then fires ArrivalHook,
	// so every arrival's *Message was previously seen by SendHook.
	SendHook func(src int, m *Message)

	// RecvHook, if set, observes every message as the receiving task
	// dequeues it (inside Recv/NRecv/RecvTimeout, before the unpacking
	// charge). This is the point where the payload becomes visible to
	// the application, so it is where happens-before knowledge actually
	// transfers — the simrace checker joins vector clocks here.
	RecvHook func(dst int, m *Message)

	// Windowed series resolved by SetSeries (nil when off).
	queuedTotal int64
	serQueue    *tseries.Series
	serRetx     *tseries.Series
	serBytes    *tseries.Series

	// msgFree is the Message free list. Per-machine, not
	// package-global: sweeps run independent machines on parallel
	// goroutines, and a shared pool would race.
	msgFree []*Message

	// dstBuf and nodeBuf are the send path's scratch: a broadcast's
	// task-id destination list and the task-id→node-id translation of
	// every send. One pair serves every task. A send fills them only
	// after its last yield, and nothing it calls from there on (hooks,
	// the reliable bookkeeping, the fabric) can start another send or
	// keeps either slice past the call.
	dstBuf, nodeBuf []int
}

// getMsg takes a Message from the free list or allocates one.
func (m *Machine) getMsg() *Message {
	if n := len(m.msgFree); n > 0 {
		msg := m.msgFree[n-1]
		m.msgFree[n-1] = nil
		m.msgFree = m.msgFree[:n-1]
		return msg
	}
	return &Message{}
}

// releaseMsg returns one delivery's share of a message. The object is
// cleared and recycled when the last share is released. A message one
// of whose deliveries was lost never reaches zero and is simply
// collected by the GC — the pool leaks an object rather than ever
// recycling early.
func (m *Machine) releaseMsg(msg *Message) {
	msg.refs--
	if msg.refs == 0 {
		*msg = Message{}
		m.msgFree = append(m.msgFree, msg)
	}
}

// SetSeries wires the machine's windowed simulated-time series into
// set: gauge "pvm.queue_depth" (machine-wide undequeued messages,
// sampled at every enqueue and dequeue), counter "pvm.retransmits"
// (reliable-transport resends per window), and counter
// "pvm.bytes_sent" (payload bytes offered to the network per window).
// Strictly observational. Call before Spawn; a nil set is a no-op.
func (m *Machine) SetSeries(set *tseries.Set) {
	m.serQueue = set.Gauge("pvm.queue_depth")
	m.serRetx = set.Counter("pvm.retransmits")
	m.serBytes = set.Counter("pvm.bytes_sent")
}

// noteQueue tracks the machine-wide queued-message level. delta is +1
// at enqueue, -1 at dequeue.
func (m *Machine) noteQueue(delta int64) {
	if m.serQueue == nil {
		return
	}
	m.queuedTotal += delta
	m.serQueue.Add(m.eng.Now(), float64(m.queuedTotal))
}

// NewMachine creates a machine on the given engine and fabric.
func NewMachine(eng *sim.Engine, net netsim.Fabric, cfg Config) *Machine {
	return &Machine{eng: eng, net: net, cfg: cfg}
}

// Tasks reports the number of spawned tasks.
func (m *Machine) Tasks() int { return len(m.tasks) }

// Task is a simulated PVM task: one process on one cluster node with a
// private message queue.
type Task struct {
	m    *Machine
	id   int // task id == index in m.tasks
	node int // netsim node id
	proc *sim.Proc

	queue []*Message
	wl    sim.WaitList

	inflight int          // frames sent but not yet clear of the bus (counted under a SendWindow)
	sendWL   sim.WaitList // senders blocked on the send window

	// lastRecv is the pooled message handed to the application by the
	// previous dequeue; its share is released when the next dequeue
	// begins (the Machine's ownership rule made operational).
	lastRecv *Message

	// wireDone is the preallocated window-release callback for sends
	// under a SendWindow with no caller onWire, which would otherwise
	// allocate a closure per send.
	wireDone func()

	// dst1 is Send's single-destination list. It is the task's own: a
	// task is one process, so it is never inside two sends at once, and
	// it stays valid across the sender's yields.
	dst1 [1]int

	sent, received int64
	stalls         int64 // sends that had to wait for the window

	bytesSent int64        // payload bytes charged to the network (once per frame)
	bytesRecv int64        // payload bytes of messages the task dequeued
	recvCPU   sim.Duration // receive-overhead CPU charged for unpacking

	relst *relState // reliable-transport state (nil unless Config.Reliable)
}

// TaskTelemetry returns the message-layer half of every task's
// telemetry (the coherence layer merges its own counters on top).
func (m *Machine) TaskTelemetry() []metrics.TaskTelemetry {
	out := make([]metrics.TaskTelemetry, len(m.tasks))
	for i, t := range m.tasks {
		out[i] = metrics.TaskTelemetry{
			Task: t.id, Name: t.proc.Name(),
			MsgsSent: t.sent, MsgsRecv: t.received,
			BytesSent: t.bytesSent, BytesRecv: t.bytesRecv,
			RecvCPUSecs: t.recvCPU.Seconds(),
			SendStalls:  t.stalls,
		}
		if t.relst != nil {
			out[i].Retransmits = t.relst.retransmits
			out[i].DupsSuppressed = t.relst.dups
			out[i].RetxAbandoned = t.relst.abandoned
		}
	}
	return out
}

// Spawn creates a task running fn on a fresh cluster node. Task ids are
// assigned densely from zero in spawn order.
func (m *Machine) Spawn(name string, fn func(*Task)) *Task {
	// The queue is pre-sized for the common few-messages-in-flight case
	// so steady-state enqueue/dequeue does not grow the backing array.
	t := &Task{m: m, id: len(m.tasks), queue: make([]*Message, 0, 16)}
	if m.cfg.SendWindow > 0 {
		t.wireDone = func() {
			t.inflight--
			t.sendWL.WakeOne()
		}
	}
	m.tasks = append(m.tasks, t)
	if m.cfg.Reliable {
		t.node = m.net.Attach(name, func(src int, payload interface{}, sentAt sim.Time) {
			t.reliableArrival(payload)
		})
	} else {
		t.node = m.net.Attach(name, t.arrive)
	}
	t.proc = m.eng.Spawn(name, func(p *sim.Proc) { fn(t) })
	return t
}

// arrive queues a *Message the network delivered to the task: it stamps
// the arrival time, shows the message to ArrivalHook and the tracer,
// and wakes the task. It is the plain transport's fabric handler and
// reads only the payload; the reliable transport hands it each
// in-order copy.
func (t *Task) arrive(_ int, payload interface{}, _ sim.Time) {
	m := t.m
	msg := payload.(*Message)
	msg.ArrivedAt = m.eng.Now()
	if m.ArrivalHook != nil {
		m.ArrivalHook(t.id, msg)
	}
	t.traceArrival(msg)
	t.queue = append(t.queue, msg)
	m.noteQueue(1)
	t.wl.WakeAll()
}

// ID returns the task id.
func (t *Task) ID() int { return t.id }

// Proc returns the task's simulation process (for Sleep, Rng, Now).
func (t *Task) Proc() *sim.Proc { return t.proc }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.m.eng.Now() }

// Compute charges d of CPU time to the task (advances its local clock).
func (t *Task) Compute(d sim.Duration) { t.proc.Sleep(d) }

// Send transmits data of the given payload size to task dst with tag:
// it is Multicast to the one task dst. The sender is charged the
// configured software overhead; transmission and queuing happen
// asynchronously on the fabric.
func (t *Task) Send(dst, tag int, size int, data interface{}) {
	t.dst1[0] = dst
	t.Multicast(t.dst1[:], tag, size, data, nil)
}

// Multicast delivers one frame to every task in dsts — PVM's pvm_mcast
// over a shared Ethernet: the datagram occupies the medium once however
// many receivers there are. The sender is charged one send overhead and
// blocks while its send window is full (transport backpressure). dsts
// is read after those yields, and not kept past the call. onWire, if
// not nil, fires when the frame finishes transmission; DSM nodes use it
// to bound their in-flight updates.
func (t *Task) Multicast(dsts []int, tag int, size int, data interface{}, onWire func()) {
	for _, dst := range dsts {
		if dst < 0 || dst >= len(t.m.tasks) {
			panic(fmt.Sprintf("pvm: send to unknown task %d", dst))
		}
	}
	t.send(dsts, 0, tag, size, data, onWire)
}

// Bcast multicasts to every other task spawned before the call; a task
// spawned while the sender sleeps off its send overhead is not a
// destination. The destination list is built in the machine's send
// scratch, so a broadcast allocates no O(tasks) slice, whichever task
// sends it.
func (t *Task) Bcast(tag int, size int, data interface{}) {
	if n := len(t.m.tasks); n > 1 {
		t.send(nil, n, tag, size, data, nil)
	}
}

// send is the one send path behind Send, Multicast and Bcast. dsts
// names the destination tasks; nil means every task below ntasks but
// the sender (Multicast passes 0, so a nil list of its caller stays
// empty). The sender first pays its overhead and waits out its send
// window; from then on it cannot yield, so the machine's scratch is
// this send's alone until it returns. The fabric gets a wire callback
// only when something waits for the frame to clear the wire: the send
// window, which counts the frame in flight, or the caller's onWire,
// handed on as it is unless the window needs wrapping it too. An
// unwindowed frame without onWire therefore costs the engine one
// event, its delivery.
func (t *Task) send(dsts []int, ntasks int, tag int, size int, data interface{}, onWire func()) {
	m := t.m
	t.proc.Sleep(m.cfg.SendOverhead)
	if w := m.cfg.SendWindow; w > 0 && t.inflight >= w {
		t.stalls++
		for t.inflight >= w {
			t.sendWL.Wait(t.proc)
		}
	}
	if dsts == nil {
		dsts = m.dstBuf[:0]
		for id := 0; id < ntasks; id++ {
			if id != t.id {
				dsts = append(dsts, id)
			}
		}
		m.dstBuf = dsts
	}
	msg := m.getMsg()
	if !m.cfg.Reliable {
		// One share per delivery. A reliable-mode original stays with
		// the retransmission machinery and is never recycled; each
		// receiver gets its own pooled copy (see deliverReliable).
		msg.refs = len(dsts)
	}
	msg.Src, msg.Tag, msg.Data, msg.Size, msg.SentAt = t.id, tag, data, size, m.eng.Now()
	t.bytesSent += int64(size)
	m.serBytes.Add(msg.SentAt, float64(size))
	t.traceSend(msg)
	wireDone := onWire
	if m.cfg.SendWindow > 0 {
		t.inflight++
		wireDone = t.wireDone
		if onWire != nil {
			wireDone = func() {
				t.inflight--
				t.sendWL.WakeOne()
				onWire()
			}
		}
	}
	var payload interface{} = msg
	var env *envelope
	if m.cfg.Reliable {
		env = t.wrapReliable(dsts, msg)
		payload = env
	}
	nodes := m.nodeBuf[:0]
	for _, dst := range dsts {
		nodes = append(nodes, m.tasks[dst].node)
	}
	m.nodeBuf = nodes
	m.net.Multicast(t.node, nodes, size, payload, wireDone)
	if env != nil {
		t.armRetransmit(dsts, env)
	}
	t.sent++
}

// match reports whether msg matches a (src, tag) pattern with Any
// wildcards.
func match(msg *Message, src, tag int) bool {
	return (src == Any || msg.Src == src) && (tag == Any || msg.Tag == tag)
}

// take removes and returns the first queued message matching (src, tag),
// or nil.
func (t *Task) take(src, tag int) *Message {
	for i, msg := range t.queue {
		if match(msg, src, tag) {
			copy(t.queue[i:], t.queue[i+1:])
			t.queue[len(t.queue)-1] = nil
			t.queue = t.queue[:len(t.queue)-1]
			t.m.noteQueue(-1)
			return msg
		}
	}
	return nil
}

// recvCost is the CPU cost of dequeuing and unpacking msg.
func (t *Task) recvCost(msg *Message) sim.Duration {
	return t.m.cfg.RecvOverhead + sim.Duration(msg.Size)*t.m.cfg.RecvPerByte
}

// charge accounts a dequeued message to the task: the unpacking CPU
// time (advancing the task's clock) and the receive-side counters. It
// is also the pool's release point: dequeuing a message ends the
// application's ownership of the previous one.
func (t *Task) charge(msg *Message) {
	if prev := t.lastRecv; prev != nil {
		t.m.releaseMsg(prev)
	}
	t.lastRecv = msg
	if t.m.RecvHook != nil {
		t.m.RecvHook(t.id, msg)
	}
	cost := t.recvCost(msg)
	t.proc.Sleep(cost)
	t.received++
	t.bytesRecv += int64(msg.Size)
	t.recvCPU += cost
}

// Recv blocks until a message matching (src, tag) is available and
// returns it, charging the receive overhead. Use Any for wildcards.
func (t *Task) Recv(src, tag int) *Message {
	for {
		if msg := t.take(src, tag); msg != nil {
			t.charge(msg)
			return msg
		}
		t.wl.Wait(t.proc)
	}
}

// NRecv returns a matching message if one is already queued, else nil.
// It never blocks; a successful receive still costs the overhead.
func (t *Task) NRecv(src, tag int) *Message {
	msg := t.take(src, tag)
	if msg != nil {
		t.charge(msg)
	}
	return msg
}

// Pending reports the number of queued (undelivered-to-app) messages.
func (t *Task) Pending() int { return len(t.queue) }

// Sent and Received report message counters for the task.
func (t *Task) Sent() int64     { return t.sent }
func (t *Task) Received() int64 { return t.received }

// Stalls reports how many sends blocked on the send window
// (backpressure events).
func (t *Task) Stalls() int64 { return t.stalls }

// Tracer returns the run's tracer (nil when tracing is off).
func (t *Task) Tracer() trace.Tracer { return t.m.eng.Tracer() }

// traceSend records the send side of a message: the SendHook and a
// "send" instant. With no hook and no tracer it costs two predictable
// branches and allocates nothing — the guarantee the nil-tracer
// benchmark pins down.
func (t *Task) traceSend(msg *Message) {
	if t.m.SendHook != nil {
		t.m.SendHook(t.id, msg)
	}
	if tr := t.m.eng.Tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(msg.SentAt), Ph: trace.PhaseInstant,
			Pid: trace.PidPVM, Tid: t.id, Cat: "pvm", Name: "send",
			K1: "tag", V1: int64(msg.Tag), K2: "size", V2: int64(msg.Size)})
	}
}

// traceArrival records the receive side: an 'X' span covering the
// message's flight from send to network arrival, on the receiving
// task's track.
func (t *Task) traceArrival(msg *Message) {
	if tr := t.m.eng.Tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(msg.SentAt), Dur: int64(msg.ArrivedAt.Sub(msg.SentAt)),
			Ph: trace.PhaseSpan, Pid: trace.PidPVM, Tid: t.id, Cat: "pvm", Name: "msg",
			K1: "src", V1: int64(msg.Src), K2: "size", V2: int64(msg.Size)})
	}
}

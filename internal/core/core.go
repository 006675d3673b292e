// Package core implements the paper's contribution: non-strict cache
// coherence via the blocking Global_Read primitive.
//
// A Location is a shared datum with a single writer and a statically
// known set of readers (the applications studied — island GAs, parallel
// logic sampling — have exactly this structure, which is why the paper
// implements shared-memory writes and reads as direct PVM sends and
// receives, §4.1). Each write carries the writer's iteration number; a
// per-node user-level buffer keeps the freshest update received per
// location. Global_Read(locn, curriter, age) returns a value of locn
// generated no earlier than iteration curriter-age of the writing
// process, blocking the reader until such a value is available. The
// blocked reader sends no messages of its own, so the primitive is
// receiver-side, program-level flow control: it converts a fully
// asynchronous iterative algorithm into a partially asynchronous one.
//
// Per the paper we implement the blocking-wait variant (wait for the
// required update to arrive) rather than the request-based variant
// (broadcast a request for a fresh copy); the latter is available behind
// an option for the ablation benchmark.
//
// A written value is shared, not copied: the writer's buffer, every
// update in flight and every reader's buffer hold the same object. A
// value that implements Block is handed back to its writer once none of
// them holds it, under one ownership rule. The node holds one reference
// for each place the value sits: the writer's own buffer entry, each
// delivery of an update not yet applied (a frame the network duplicates
// is two deliveries), each reader's buffer entry, an outbox entry and a
// request-based re-send. It releases a reference when that place lets
// go of the value: a newer value replaces a buffer entry, apply drops a
// stale or duplicate update, or an outbox entry is coalesced away or
// sent. A Block that Read or GlobalRead returned therefore stays valid
// until the reader's next DSM call on that node, which is when a newer
// value can replace it; an Observer must not keep one past its call. A
// delivery the network loses never releases its reference, so its
// block is left to the GC, as pvm's pooled messages are.
package core

import (
	"fmt"

	"nscc/internal/intmap"
	"nscc/internal/metrics"
	"nscc/internal/pvm"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// Mode names the coherence discipline an application variant runs under.
type Mode int

const (
	// Sync is the barrier-synchronized implementation: every iteration
	// ends with a message barrier and reads always observe the
	// immediately preceding iteration's values.
	Sync Mode = iota
	// Async is the fully asynchronous implementation: reads return
	// whatever has arrived, however stale, and never block.
	Async
	// NonStrict is the partially asynchronous implementation: reads go
	// through Global_Read with a finite age bound.
	NonStrict
)

func (m Mode) String() string {
	switch m {
	case Sync:
		return "sync"
	case Async:
		return "async"
	case NonStrict:
		return "global_read"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// NoValue is the iteration number reported for a location never yet
// received.
const NoValue int64 = -1 << 62

// Location describes one shared datum: a single writer task and the
// reader tasks that consume it. Sizes are what each update message
// charges to the network.
type Location struct {
	ID      int
	Name    string
	Writer  int   // writer task id
	Readers []int // reader task ids (excluding the writer)
	Size    int   // bytes per update message
}

// Block is a written value whose storage its writer recycles. The DSM
// node counts the references it holds to a Block while the value sits
// in a buffer or travels to a reader (see the package doc for the
// rule). The last Release hands the block back to its writer, who may
// then overwrite it for a later write; until then nobody writes it.
type Block interface {
	// Retain adds n references.
	Retain(n int)
	// Release drops one reference.
	Release()
}

// Update is a received value of a location together with its age
// bookkeeping.
type Update struct {
	Value     interface{}
	Iter      int64    // writer iteration that generated the value
	WrittenAt sim.Time // virtual time of the write
}

// updateMsg travels from writer to reader. All DSM traffic shares one
// PVM tag; the location id rides in the payload.
type updateMsg struct {
	Loc   int
	Iter  int64
	Value interface{}
	WAt   sim.Time

	// owner/refs implement pooling: owner is the writing node whose
	// free list the message returns to, refs the number of deliveries
	// not yet applied. apply() copies every field out into the node's
	// buffer, so a reader is done with the message the moment apply
	// returns and releases its share right there.
	owner *Node
	refs  int
}

// Retain takes n more delivery shares of the message, with one
// reference to its value per share if the value is a Block. pvm calls
// it through Message.Retain when the network delivers the message's
// frame once more.
func (u *updateMsg) Retain(n int) {
	u.refs += n
	if b, ok := u.Value.(Block); ok {
		b.Retain(n)
	}
}

// release returns one delivery's share of an update message, recycling
// it onto the owning writer's free list when the last delivery is
// applied.
func (u *updateMsg) release() {
	u.refs--
	if u.refs == 0 {
		o := u.owner
		*u = updateMsg{}
		o.updFree = append(o.updFree, u)
	}
}

// reqMsg is the request-based Global_Read's "please send me a fresh
// copy" message (ablation only).
type reqMsg struct {
	Loc     int
	MinIter int64
}

// UpdateTag is the PVM tag carrying DSM update messages.
const UpdateTag = 1 << 14

// RequestTag is the PVM tag carrying request-based read solicitations.
const RequestTag = UpdateTag + 1

// requestMsgSize is the network size of a solicitation (a location id
// and an iteration bound).
const requestMsgSize = 16

// ReadInfo describes one completed DSM read to a RaceObserver.
type ReadInfo struct {
	Task int // reading task id
	Loc  int // location id
	// GotIter is the iteration of the returned value (meaningless when
	// HasValue is false).
	GotIter int64
	// CurIter and Age are the Global_Read arguments (zero for async
	// reads, which carry no staleness contract).
	CurIter int64
	Age     int64
	// Bounded marks a Global_Read (finite staleness contract); async
	// Read calls report Bounded false.
	Bounded bool
	// TimedOut marks a Global_Read that hit Options.ReadTimeout and
	// degraded to the cached value.
	TimedOut bool
	// HasValue is false when the read returned no value at all (nothing
	// had arrived and the contract demanded nothing).
	HasValue bool
}

// RaceObserver receives the coherence layer's write/read stream. The
// simrace checker implements it to classify every cross-process read
// against the writes it may have raced; the interface lives here so
// package core stays free of any dependency on the checker.
type RaceObserver interface {
	// ObserveWrite fires at each application write, before the update
	// messages enter the network.
	ObserveWrite(task, loc int, iter int64)
	// ObserveRead fires as each Read/GlobalRead returns.
	ObserveRead(ReadInfo)
}

// LocationObserver is optionally implemented by a RaceObserver that
// wants location identities (the simrace checker uses them to report
// per-location classifications under their application-level names,
// which is what the static reconciliation joins against). Register
// announces each location to it.
type LocationObserver interface {
	ObserveLocation(id int, name string)
}

// Options configure a Node.
type Options struct {
	// Window bounds the writer's in-flight update frames; writes beyond
	// the window queue in a local outbox until earlier frames clear the
	// wire. 0 means unlimited (send immediately).
	Window int
	// Coalesce, with a finite Window, lets a queued outbox update of a
	// location be overwritten by a newer write of the same location —
	// the slow-memory-style buffering of Mermera [18] that "amortizes
	// message overheads by coalescing several updates of a single
	// shared memory location".
	Coalesce bool
	// RequestRead switches Global_Read to the request-based protocol:
	// when blocking, the reader first sends the writer a solicitation.
	// The paper rejects this variant for its extra messages (§2); it is
	// kept for the ablation benchmark.
	RequestRead bool
	// Observer, if set, sees every received update message (fresh or
	// stale) before the buffer decides whether to keep it. It is an
	// application-logic hook — parallel logic sampling consumes the full
	// per-iteration interface stream through it. Pure observability does
	// not belong here: set a trace.Tracer on the engine instead, and the
	// node emits an "update" instant for the same stream. A Block it is
	// handed is valid only during the call.
	Observer func(locID int, u Update)
	// Races, if set, observes every DSM write and read for race
	// classification (the -simrace flag wires the simrace checker in
	// here). Nil costs one predicted branch per operation.
	Races RaceObserver
	// Series, if set, records the node's windowed simulated-time series
	// into the given set: quantile "core.staleness" (per-window observed
	// Global_Read staleness), counter "core.read_timeouts" (degraded
	// reads per window), and counter "core.blocked_us" (microseconds of
	// Global_Read blocking charged to the window the block ended in).
	// Strictly observational; nil costs one predicted branch per site.
	Series *tseries.Set
	// ReadTimeout bounds how long a Global_Read may block. When the
	// deadline passes without a sufficiently fresh value, the read
	// degrades gracefully: it returns the freshest cached value (Iter
	// NoValue if none has ever arrived) and counts a staleness
	// violation in Stats.ReadTimeouts, instead of blocking forever on
	// an update the network may have lost. Zero keeps the paper's
	// unbounded blocking wait. Timed-out reads are excluded from the
	// staleness histogram: the histogram documents the bound the
	// primitive *honored*, the violation counter documents when it
	// could not.
	ReadTimeout sim.Duration
}

// Stats counts a node's DSM activity.
type Stats struct {
	Writes       int64        // application writes
	UpdatesSent  int64        // update messages put on the network
	Coalesced    int64        // outbox updates overwritten before sending
	Reads        int64        // async reads
	GlobalReads  int64        // Global_Read calls
	BlockedReads int64        // Global_Read calls that had to block
	BlockedTime  sim.Duration // total time spent blocked in Global_Read
	Requests     int64        // solicitations sent (request-based mode)
	StaleSum     int64        // sum over Global_Reads of (curIter - returned Iter)
	StaleMax     int64        // max staleness returned by any Global_Read
	ReadTimeouts int64        // Global_Reads that hit Options.ReadTimeout and degraded
}

type outboxEntry struct {
	loc  *Location
	iter int64
	val  interface{}
	wAt  sim.Time
	size int
}

// Node is one task's view of the distributed shared memory: the local
// buffer of freshest updates plus the write path to this task's readers.
type Node struct {
	task *pvm.Task
	locs intmap.Map[*Location] // by location id
	buf  intmap.Map[Update]    // by location id
	opts Options

	inFlight int
	outbox   []outboxEntry
	stats    Stats
	stale    metrics.Histogram // observed Global_Read staleness, log-bucketed

	// updFree is the node's updateMsg free list, refilled by readers
	// through updateMsg.release. wireDone is the preallocated
	// in-flight-decrement callback (one closure per node instead of one
	// per write). It is set only under a Window, the one reader of
	// inFlight, so without a Window a write hands pvm no callback and
	// its frame costs the engine no wire-done event.
	wireDone func()
	updFree  []*updateMsg

	// Windowed series resolved once from Options.Series (nil when off).
	serStale    *tseries.Series
	serTimeouts *tseries.Series
	serBlocked  *tseries.Series
}

// NewNode attaches a DSM node to a PVM task. Every location the task
// writes or reads must be registered via Register before use.
func NewNode(task *pvm.Task, opts Options) *Node {
	n := &Node{
		task: task,
		opts: opts,

		serStale:    opts.Series.Quantile("core.staleness"),
		serTimeouts: opts.Series.Counter("core.read_timeouts"),
		serBlocked:  opts.Series.Counter("core.blocked_us"),
	}
	if opts.Window > 0 {
		n.wireDone = func() { n.inFlight-- }
	}
	return n
}

// newUpdateMsg takes an update message from the node's free list (or
// allocates one) and stamps it for recycling by its nreaders receivers.
func (n *Node) newUpdateMsg(nreaders int) *updateMsg {
	var u *updateMsg
	if ln := len(n.updFree); ln > 0 {
		u = n.updFree[ln-1]
		n.updFree[ln-1] = nil
		n.updFree = n.updFree[:ln-1]
	} else {
		u = &updateMsg{}
	}
	u.owner, u.refs = n, nreaders
	return u
}

// retain takes k references to v for the node's buffers and messages,
// if v is a Block.
func retain(v interface{}, k int) {
	if b, ok := v.(Block); ok {
		b.Retain(k)
	}
}

// release drops one reference to v, if v is a Block.
func release(v interface{}) {
	if b, ok := v.(Block); ok {
		b.Release()
	}
}

// now returns the task's virtual time, 0 for a detached node (as in
// buffer-level unit tests).
func (n *Node) now() sim.Time {
	if n.task == nil {
		return 0
	}
	return n.task.Now()
}

// Task returns the underlying PVM task.
func (n *Node) Task() *pvm.Task { return n.task }

// tracer returns the run's tracer — nil when tracing is off or the node
// is detached from any task (as in buffer-level unit tests).
func (n *Node) tracer() trace.Tracer {
	if n.task == nil {
		return nil
	}
	return n.task.Tracer()
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// Staleness returns the node's histogram of observed Global_Read
// staleness (curIter − returned Iter, clamped at zero). Its maximum
// never exceeds the age bound the application passed, which is the
// coherence guarantee in measurable form.
func (n *Node) Staleness() *metrics.Histogram { return &n.stale }

// Register declares a location to the node. Registering the same id
// twice with a different location panics.
func (n *Node) Register(loc *Location) {
	if prev, ok := n.locs.Get(int64(loc.ID)); ok && prev != loc {
		panic(fmt.Sprintf("core: location %d registered twice", loc.ID))
	}
	n.locs.Put(int64(loc.ID), loc)
	if lo, ok := n.opts.Races.(LocationObserver); ok {
		lo.ObserveLocation(loc.ID, loc.Name)
	}
}

// Write publishes value as the iteration iter value of loc. One update
// message per reader enters the network (subject to the window/outbox).
// Iterations must be non-decreasing per location.
func (n *Node) Write(loc *Location, iter int64, value interface{}) {
	n.WriteSized(loc, iter, loc.Size, value)
}

// WriteSized is Write with an explicit message size, for locations
// whose update payloads vary (e.g. batched interface bundles).
func (n *Node) WriteSized(loc *Location, iter int64, size int, value interface{}) {
	if loc.Writer != n.task.ID() {
		panic(fmt.Sprintf("core: task %d writing location %q owned by %d",
			n.task.ID(), loc.Name, loc.Writer))
	}
	n.stats.Writes++
	if n.opts.Races != nil {
		n.opts.Races.ObserveWrite(n.task.ID(), loc.ID, iter)
	}
	// The writer's own buffer always sees its latest value. Its entry
	// takes its reference before the one it replaces lets go, so a
	// republished value never reaches zero in between.
	retain(value, 1)
	own, _ := n.buf.Upsert(int64(loc.ID))
	old := own.Value
	*own = Update{Value: value, Iter: iter, WrittenAt: n.task.Now()}
	release(old)

	if n.opts.Window > 0 && n.inFlight >= n.opts.Window {
		retain(value, 1) // the outbox entry's
		if n.opts.Coalesce {
			for i := range n.outbox {
				if n.outbox[i].loc.ID == loc.ID {
					release(n.outbox[i].val)
					n.outbox[i] = outboxEntry{loc, iter, value, n.task.Now(), size}
					n.stats.Coalesced++
					return
				}
			}
		}
		n.outbox = append(n.outbox, outboxEntry{loc, iter, value, n.task.Now(), size})
		return
	}
	n.sendUpdate(loc, iter, value, n.task.Now(), size)
}

func (n *Node) sendUpdate(loc *Location, iter int64, value interface{}, wAt sim.Time, size int) {
	if len(loc.Readers) == 0 {
		return
	}
	msg := n.newUpdateMsg(len(loc.Readers))
	msg.Loc, msg.Iter, msg.Value, msg.WAt = loc.ID, iter, value, wAt
	retain(value, len(loc.Readers)) // one per reader's undelivered update
	if n.wireDone != nil {
		n.inFlight++
	}
	n.task.Multicast(loc.Readers, UpdateTag, size, msg, n.wireDone)
	n.stats.UpdatesSent++
}

// Flush drains as much of the outbox as the window now allows. Called
// implicitly by every DSM operation; applications can also call it
// directly (e.g. once per iteration).
func (n *Node) Flush() {
	for len(n.outbox) > 0 {
		e := n.outbox[0]
		if n.opts.Window > 0 && n.inFlight >= n.opts.Window {
			return
		}
		copy(n.outbox, n.outbox[1:])
		n.outbox = n.outbox[:len(n.outbox)-1]
		n.sendUpdate(e.loc, e.iter, e.val, e.wAt, e.size)
		release(e.val) // the outbox entry's, now the updates'
	}
}

// drain applies all DSM update messages waiting in the PVM queue to the
// local buffer, and answers any read solicitations.
func (n *Node) drain() {
	for {
		m := n.task.NRecv(pvm.Any, UpdateTag)
		if m == nil {
			break
		}
		u := m.Data.(*updateMsg)
		n.apply(u)
		u.release()
	}
	n.serveRequests()
}

// apply installs an update if it is fresher than what the buffer holds.
// Stale (out-of-order or duplicate) updates are dropped — non-strict
// coherence only ever moves forward. The update's reference to its
// value moves into the buffer entry, which releases the value it
// replaces; a dropped update releases its own.
func (n *Node) apply(u *updateMsg) {
	if n.opts.Observer != nil {
		n.opts.Observer(u.Loc, Update{Value: u.Value, Iter: u.Iter, WrittenAt: u.WAt})
	}
	if tr := n.tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(n.task.Now()), Ph: trace.PhaseInstant,
			Pid: trace.PidCore, Tid: n.task.ID(), Cat: "core", Name: "update",
			K1: "loc", V1: int64(u.Loc), K2: "iter", V2: u.Iter})
	}
	cur, ok := n.buf.Upsert(int64(u.Loc))
	if !ok || u.Iter > cur.Iter {
		old := cur.Value
		*cur = Update{Value: u.Value, Iter: u.Iter, WrittenAt: u.WAt}
		release(old)
	} else {
		release(u.Value)
	}
}

// serveRequests answers pending solicitations (request-based ablation):
// re-send the current value of the requested location to the asker.
func (n *Node) serveRequests() {
	for {
		m := n.task.NRecv(pvm.Any, RequestTag)
		if m == nil {
			return
		}
		req := m.Data.(*reqMsg)
		loc, ok := n.locs.Get(int64(req.Loc))
		if !ok || loc.Writer != n.task.ID() {
			continue
		}
		if cur, ok := n.buf.Get(int64(req.Loc)); ok {
			msg := n.newUpdateMsg(1)
			msg.Loc, msg.Iter, msg.Value, msg.WAt = loc.ID, cur.Iter, cur.Value, cur.WrittenAt
			retain(cur.Value, 1)
			n.task.Send(m.Src, UpdateTag, loc.Size, msg)
			n.stats.UpdatesSent++
		}
	}
}

// Poll services the DSM without reading any particular location: it
// flushes the outbox and applies all pending update messages to the
// local buffer (feeding the Observer, if any). Fully asynchronous
// applications call it once per iteration.
func (n *Node) Poll() {
	n.Flush()
	n.drain()
}

// Read is the fully asynchronous read: it returns the freshest update
// that has arrived for loc (ok=false if none ever has) and never blocks.
func (n *Node) Read(loc *Location) (Update, bool) {
	n.Flush()
	n.drain()
	n.stats.Reads++
	u, ok := n.buf.Get(int64(loc.ID))
	if n.opts.Races != nil {
		n.opts.Races.ObserveRead(ReadInfo{Task: n.task.ID(), Loc: loc.ID,
			GotIter: u.Iter, HasValue: ok})
	}
	return u, ok
}

// GlobalRead is the paper's primitive: it returns an update of loc
// generated no earlier than iteration curIter-age of the writer,
// blocking until one is available. The blocked process cannot send
// messages, which is exactly the flow-control effect the paper exploits.
//
// When curIter-age < 0, no value is required to exist yet (the writer's
// first iteration is 0); if none has arrived, GlobalRead returns
// immediately with a zero Update whose Iter is NoValue rather than
// blocking on a value the contract does not demand.
func (n *Node) GlobalRead(loc *Location, curIter, age int64) Update {
	n.Flush()
	n.drain()
	n.stats.GlobalReads++
	minIter := curIter - age

	u, ok := n.buf.Get(int64(loc.ID))
	if ok && u.Iter >= minIter {
		n.traceRead(n.task.Now(), 0, loc, n.recordStaleness(curIter, u.Iter))
		n.observeGlobalRead(loc, u.Iter, curIter, age, false, true)
		return u
	}
	if !ok && minIter < 0 {
		n.traceRead(n.task.Now(), 0, loc, -1)
		n.observeGlobalRead(loc, 0, curIter, age, false, false)
		return Update{Iter: NoValue}
	}

	// Block until a sufficiently fresh value arrives.
	n.stats.BlockedReads++
	start := n.task.Now()
	if n.opts.RequestRead {
		n.task.Send(loc.Writer, RequestTag, requestMsgSize, &reqMsg{Loc: loc.ID, MinIter: minIter})
		n.stats.Requests++
	}
	var deadline sim.Time
	if n.opts.ReadTimeout > 0 {
		deadline = start.Add(n.opts.ReadTimeout)
	}
	for {
		var m *pvm.Message
		if n.opts.ReadTimeout > 0 {
			m = n.task.RecvTimeout(pvm.Any, UpdateTag, deadline.Sub(n.task.Now()))
			if m == nil {
				return n.degradeRead(loc, start, curIter, age)
			}
		} else {
			m = n.task.Recv(pvm.Any, UpdateTag)
		}
		um := m.Data.(*updateMsg)
		n.apply(um)
		um.release()
		if u, ok := n.buf.Get(int64(loc.ID)); ok && u.Iter >= minIter {
			end := n.task.Now()
			n.stats.BlockedTime += end.Sub(start)
			n.serBlocked.Add(end, float64(end.Sub(start))/1e3)
			n.traceRead(start, end.Sub(start), loc, n.recordStaleness(curIter, u.Iter))
			n.observeGlobalRead(loc, u.Iter, curIter, age, false, true)
			return u
		}
	}
}

// observeGlobalRead reports one finished Global_Read to the race
// observer (nil-safe).
func (n *Node) observeGlobalRead(loc *Location, gotIter, curIter, age int64, timedOut, hasValue bool) {
	if n.opts.Races == nil {
		return
	}
	n.opts.Races.ObserveRead(ReadInfo{Task: n.task.ID(), Loc: loc.ID,
		GotIter: gotIter, CurIter: curIter, Age: age,
		Bounded: true, TimedOut: timedOut, HasValue: hasValue})
}

// degradeRead finishes a Global_Read whose ReadTimeout expired: the
// staleness bound could not be met, so the read returns the freshest
// cached value (Iter NoValue if none exists) and records a violation.
// The observed staleness deliberately stays out of the histogram — the
// histogram states the bound the primitive honored; the counter states
// how often it could not.
func (n *Node) degradeRead(loc *Location, start sim.Time, curIter, age int64) Update {
	end := n.task.Now()
	n.stats.BlockedTime += end.Sub(start)
	n.serBlocked.Add(end, float64(end.Sub(start))/1e3)
	n.stats.ReadTimeouts++
	n.serTimeouts.Add(end, 1)
	if tr := n.tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(end), Ph: trace.PhaseInstant,
			Pid: trace.PidCore, Tid: n.task.ID(), Cat: "core", Name: "read_timeout",
			K1: "loc", V1: int64(loc.ID)})
	}
	n.traceRead(start, end.Sub(start), loc, -1)
	if u, ok := n.buf.Get(int64(loc.ID)); ok {
		n.observeGlobalRead(loc, u.Iter, curIter, age, true, true)
		return u
	}
	n.observeGlobalRead(loc, 0, curIter, age, true, false)
	return Update{Iter: NoValue}
}

// recordStaleness accounts one Global_Read's observed staleness and
// returns it (clamped at zero: the writer may be ahead of the reader's
// notion of the current iteration).
func (n *Node) recordStaleness(curIter, gotIter int64) int64 {
	s := curIter - gotIter
	if s < 0 {
		s = 0
	}
	n.stats.StaleSum += s
	if s > n.stats.StaleMax {
		n.stats.StaleMax = s
	}
	n.stale.Observe(s)
	n.serStale.Observe(n.now(), s)
	return s
}

// traceRead emits the Global_Read span: one 'X' record per call, with
// TS at the call and Dur the time spent blocked (zero for an immediate
// hit). stale is the observed staleness, or -1 when no value existed
// yet (the NoValue early return).
func (n *Node) traceRead(start sim.Time, d sim.Duration, loc *Location, stale int64) {
	if tr := n.tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(start), Dur: int64(d), Ph: trace.PhaseSpan,
			Pid: trace.PidCore, Tid: n.task.ID(), Cat: "core", Name: "global_read",
			K1: "loc", V1: int64(loc.ID), K2: "stale", V2: stale})
	}
}

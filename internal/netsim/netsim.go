// Package netsim models the interconnect of the paper's evaluation
// platform: a 10 Mbps shared Ethernet joining the nodes of an IBM SP2
// multicomputer. The medium is a single shared bus — one frame in flight
// at a time, FIFO queuing, optional contention backoff — so queuing
// delay grows sharply as offered load approaches capacity. That is the
// regime in which uncontrolled asynchronous algorithms flood the network
// and in which the Global_Read primitive's receiver-side throttling pays
// off, so the bus model is the load-bearing substrate of every
// experiment in the repository.
package netsim

import (
	"fmt"

	"nscc/internal/metrics"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
	"nscc/internal/xrand"
)

// Config describes the physical and protocol parameters of the network.
type Config struct {
	// BandwidthBps is the raw medium bit rate (10e6 for the paper's
	// Ethernet).
	BandwidthBps float64
	// PropDelay is the signal propagation delay per frame.
	PropDelay sim.Duration
	// FrameOverhead is the per-message protocol header, in bytes
	// (Ethernet + IP + UDP + PVM framing).
	FrameOverhead int
	// ContentionBackoff enables a CSMA/CD-flavoured penalty: a frame
	// that finds the bus busy waits an extra exponentially-distributed
	// backoff with mean proportional to the queue it found. Zero
	// disables the penalty (pure FIFO bus).
	ContentionBackoff float64
	// LossProb drops each frame independently with this probability.
	// Data-race-tolerant applications survive losses; loss injection
	// exercises that claim.
	LossProb float64
}

// DefaultConfig returns the paper-calibrated network: 10 Mbps shared
// Ethernet, 50 us propagation, ~100 bytes of framing, mild contention.
func DefaultConfig() Config {
	return Config{
		BandwidthBps:      10e6,
		PropDelay:         50 * sim.Microsecond,
		FrameOverhead:     300, // Ethernet+IP+UDP plus PVM daemon framing/fragmentation
		ContentionBackoff: 0.5,
	}
}

// Handler receives a delivered payload. src is the sending node's id,
// sentAt the virtual time the frame entered the network (used for warp
// measurement).
type Handler func(src int, payload interface{}, sentAt sim.Time)

// Stats aggregates network-level counters.
type Stats struct {
	Frames      int64        // frames offered to the network
	Delivered   int64        // frames delivered
	Dropped     int64        // frames lost (LossProb)
	Bytes       int64        // payload+header bytes transmitted
	BusyTime    sim.Duration // total time the bus spent transmitting
	QueueDelay  sim.Duration // sum of per-frame waits for the bus
	MaxQueueLen int          // peak number of frames waiting
}

// Telemetry converts the counters into the machine-readable export
// block. elapsed is the run's virtual duration, used for utilization.
func (s Stats) Telemetry(elapsed sim.Duration) metrics.NetTelemetry {
	util := 0.0
	if elapsed > 0 {
		util = s.BusyTime.Seconds() / elapsed.Seconds()
	}
	return metrics.NetTelemetry{
		Frames: s.Frames, Delivered: s.Delivered, Dropped: s.Dropped,
		Bytes: s.Bytes, BusySecs: s.BusyTime.Seconds(),
		QueueDelaySecs: s.QueueDelay.Seconds(), MaxQueueLen: s.MaxQueueLen,
		Utilization: util,
	}
}

// NodeStats counts one node's offered traffic (who floods the medium).
type NodeStats struct {
	Frames int64
	Bytes  int64
}

// Network is a shared-bus interconnect attached to a simulation engine.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	rng      *xrand.Rand
	handlers []Handler
	names    []string

	busFreeAt sim.Time
	queued    int
	stats     Stats
	perNode   []NodeStats

	// Windowed utilization accounting, maintained only while the
	// engine's tracer is set: busy time is attributed to the window
	// containing each frame's transmission start, and a "util_pct"
	// counter record is emitted when a window closes.
	winStart sim.Time
	winBusy  sim.Duration

	// Windowed series resolved by SetSeries (nil when off).
	serBusy  *tseries.Series
	serDrops *tseries.Series
	serQueue *tseries.Series

	// frames is the free list of pooled delivery callbacks. Every
	// transmission schedules exactly one delivery, so in steady state
	// the pool holds about as many frames as the peak number in flight
	// and the per-send path allocates nothing.
	frames []*frame

	// bcastBuf is Broadcast's reusable destination list. Multicast
	// copies the slice into the frame before returning, so the buffer
	// is free for the next call; a simulation step is single-threaded,
	// so no two broadcasts overlap.
	bcastBuf []int
}

// frame is a pooled in-flight transmission: the delivery callback the
// bus schedules for a frame's arrival. Pooling it (together with the
// engine's ScheduleRunner) removes the per-send closure allocation from
// the network hot path. A multicast frame copies its destination list
// into the frame's own reusable buffer, so callers may recycle theirs
// as soon as Multicast returns.
type frame struct {
	n       *Network
	src     int
	dst     int // unicast destination; -1 for multicast
	size    int
	payload interface{}
	sentAt  sim.Time
	lost    bool   // unicast loss verdict
	dsts    []int  // multicast destinations (reusable buffer)
	losts   []bool // per-destination loss verdicts; empty = none lost
}

// getFrame takes a frame from the pool (or allocates one) and stamps
// the fields common to both transmission paths.
func (n *Network) getFrame(src, size int, payload interface{}) *frame {
	var f *frame
	if ln := len(n.frames); ln > 0 {
		f = n.frames[ln-1]
		n.frames[ln-1] = nil
		n.frames = n.frames[:ln-1]
	} else {
		f = &frame{n: n}
	}
	f.src, f.size, f.payload, f.sentAt = src, size, payload, n.eng.Now()
	return f
}

// Run delivers the frame: it is the event callback for the frame's
// arrival time. After the handlers return, the frame drops its payload
// reference and goes back to the pool.
func (f *frame) Run() {
	n := f.n
	n.queued--
	if f.dst >= 0 {
		if f.lost {
			n.stats.Dropped++
			n.serDrops.Add(n.eng.Now(), 1)
			n.traceDrop(f.src, f.dst, f.size)
		} else {
			n.stats.Delivered++
			n.handlers[f.dst](f.src, f.payload, f.sentAt)
		}
	} else {
		for i, dst := range f.dsts {
			if len(f.losts) > 0 && f.losts[i] {
				n.stats.Dropped++
				n.serDrops.Add(n.eng.Now(), 1)
				n.traceDrop(f.src, dst, f.size)
				continue
			}
			n.stats.Delivered++
			n.handlers[dst](f.src, f.payload, f.sentAt)
		}
	}
	f.payload = nil
	n.frames = append(n.frames, f)
}

// SetSeries wires the bus's windowed simulated-time series into set:
// counter "net.busy_us" (microseconds of medium occupancy, attributed
// to the window each frame's transmission started in), counter
// "net.drops" (lost deliveries per window), and gauge
// "net.queue_depth" (frames waiting or in flight, sampled per frame).
// Strictly observational; a nil set is a no-op.
func (n *Network) SetSeries(set *tseries.Set) {
	n.serBusy = set.Counter("net.busy_us")
	n.serDrops = set.Counter("net.drops")
	n.serQueue = set.Gauge("net.queue_depth")
}

// utilWindow is the width of the traced utilization windows (matching
// the warp series' 100 ms windows so the two series line up).
const utilWindow = 100 * sim.Millisecond

// traceFrame emits the bus's per-frame observability records: the
// queue-depth counter, the closing of any elapsed utilization windows,
// and the frame's own busy time. Called only with a non-nil tracer.
func (n *Network) traceFrame(tr trace.Tracer, now, start sim.Time, tx sim.Duration) {
	for now >= n.winStart.Add(utilWindow) {
		pct := int64(100 * n.winBusy.Seconds() / utilWindow.Seconds())
		tr.Emit(trace.Event{TS: int64(n.winStart.Add(utilWindow)), Ph: trace.PhaseCounter,
			Pid: trace.PidNet, Cat: "net", Name: "bus_util", K1: "util_pct", V1: pct})
		n.winStart = n.winStart.Add(utilWindow)
		n.winBusy = 0
	}
	n.winBusy += tx
	tr.Emit(trace.Event{TS: int64(now), Ph: trace.PhaseCounter,
		Pid: trace.PidNet, Cat: "net", Name: "bus", K1: "queued", V1: int64(n.queued),
		K2: "wait_us", V2: int64(start.Sub(now)) / 1000})
}

// New creates a network on eng with the given configuration. It panics
// on a configuration that fails Validate.
func New(eng *sim.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Network{eng: eng, cfg: cfg, rng: eng.NewRng(1 << 20)}
}

// Engine returns the engine the network is attached to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Attach registers a node with the network and returns its id. The
// handler is invoked (as an engine event) for every frame delivered to
// the node.
func (n *Network) Attach(name string, h Handler) int {
	n.handlers = append(n.handlers, h)
	n.names = append(n.names, name)
	n.perNode = append(n.perNode, NodeStats{})
	return len(n.handlers) - 1
}

// Nodes reports the number of attached nodes.
func (n *Network) Nodes() int { return len(n.handlers) }

// NodeName returns the name a node registered with.
func (n *Network) NodeName(id int) string { return n.names[id] }

// txTime returns the medium occupancy for size payload bytes.
func (n *Network) txTime(size int) sim.Duration {
	bits := float64(size+n.cfg.FrameOverhead) * 8
	return sim.DurationOf(bits / n.cfg.BandwidthBps)
}

// Send transmits payload from src to dst. It never blocks the caller:
// the frame queues for the shared bus, occupies it for its transmission
// time, and is delivered PropDelay later via the destination's handler.
// Frames from one source to one destination are delivered in FIFO order
// (the single bus serializes everything).
func (n *Network) Send(src, dst, size int, payload interface{}) {
	n.Unicast(src, dst, size, payload, nil)
}

// SendFull is Send with an onWire callback fired when the frame finishes
// transmission (leaves the sender's NIC). Senders that bound their
// in-flight frames use it to implement outbox windows.
func (n *Network) SendFull(src, dst, size int, payload interface{}, onWire func()) {
	n.Unicast(src, dst, size, payload, onWire)
}

// admitFrame performs the shared-bus admission bookkeeping for one
// frame — queuing behind the busy bus (with the CSMA/CD-style backoff
// penalty), stats, tracing, and the onWire schedule — and returns the
// frame's delivery time. The backoff penalty grows with the contention
// the frame found but saturates at ContentionBackoff transmission
// times: Ethernet's effective throughput degrades to roughly
// 1/(1+ContentionBackoff) of nominal under sustained load rather than
// collapsing.
func (n *Network) admitFrame(src, size int, onWire func()) sim.Time {
	now := n.eng.Now()
	n.stats.Frames++
	n.perNode[src].Frames++
	n.perNode[src].Bytes += int64(size + n.cfg.FrameOverhead)

	start := now
	if n.busFreeAt > start {
		start = n.busFreeAt
		if n.cfg.ContentionBackoff > 0 && n.queued > 0 {
			f := float64(n.queued) / 16
			if f > 1 {
				f = 1
			}
			mean := n.cfg.ContentionBackoff * f * n.txTime(size).Seconds()
			start = start.Add(sim.DurationOf(n.rng.ExpFloat64() * mean))
		}
	}
	tx := n.txTime(size)
	n.stats.QueueDelay += start.Sub(now)
	n.stats.BusyTime += tx
	n.stats.Bytes += int64(size + n.cfg.FrameOverhead)
	n.busFreeAt = start.Add(tx)

	n.queued++
	if n.queued > n.stats.MaxQueueLen {
		n.stats.MaxQueueLen = n.queued
	}
	n.serBusy.Add(start, float64(tx)/1e3)
	n.serQueue.Add(now, float64(n.queued))
	if tr := n.eng.Tracer(); tr != nil {
		n.traceFrame(tr, now, start, tx)
	}
	if onWire != nil {
		n.eng.Schedule(n.busFreeAt, onWire)
	}
	return n.busFreeAt.Add(n.cfg.PropDelay)
}

// traceDrop emits the loss record for a dropped delivery.
func (n *Network) traceDrop(src, dst, size int) {
	if tr := n.eng.Tracer(); tr != nil {
		tr.Emit(trace.Event{TS: int64(n.eng.Now()), Ph: trace.PhaseInstant,
			Pid: trace.PidNet, Tid: dst, Cat: "net", Name: "drop",
			K1: "src", V1: int64(src), K2: "size", V2: int64(size)})
	}
}

// Unicast is the single-destination transmission path. It is what Send
// and the message layer's point-to-point traffic use: semantically a
// one-element Multicast, but without the destination-slice and
// loss-slice allocations of the general path — point-to-point sends
// dominate the pipelined inference workloads, so this is a DES hot
// path.
func (n *Network) Unicast(src, dst, size int, payload interface{}, onWire func()) {
	if dst < 0 || dst >= len(n.handlers) {
		panic(fmt.Sprintf("netsim: send to unknown node %d", dst))
	}
	f := n.getFrame(src, size, payload)
	f.dst = dst
	deliverAt := n.admitFrame(src, size, onWire)
	f.lost = n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb
	n.eng.ScheduleRunner(deliverAt, f)
}

// Multicast transmits one frame that every node in dsts receives — the
// shared-medium property of Ethernet that PVM's pvm_mcast exploits: a
// broadcast datagram occupies the bus once regardless of the receiver
// count. The island GA's best-N/2 broadcast (§4.2.1) depends on this
// for its scaling. Loss (if configured) is drawn independently per
// receiver.
func (n *Network) Multicast(src int, dsts []int, size int, payload interface{}, onWire func()) {
	if len(dsts) == 1 {
		n.Unicast(src, dsts[0], size, payload, onWire)
		return
	}
	for _, dst := range dsts {
		if dst < 0 || dst >= len(n.handlers) {
			panic(fmt.Sprintf("netsim: send to unknown node %d", dst))
		}
	}
	f := n.getFrame(src, size, payload)
	f.dst = -1
	f.dsts = append(f.dsts[:0], dsts...)
	deliverAt := n.admitFrame(src, size, onWire)
	f.losts = f.losts[:0]
	if n.cfg.LossProb > 0 {
		for range dsts {
			f.losts = append(f.losts, n.rng.Float64() < n.cfg.LossProb)
		}
	}
	n.eng.ScheduleRunner(deliverAt, f)
}

// Broadcast multicasts payload from src to every other attached node as
// a single frame on the shared medium.
func (n *Network) Broadcast(src, size int, payload interface{}) {
	dsts := n.bcastBuf[:0]
	for dst := range n.handlers {
		if dst != src {
			dsts = append(dsts, dst)
		}
	}
	n.bcastBuf = dsts
	n.Multicast(src, dsts, size, payload, nil)
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// NodeTraffic returns the traffic node id has offered to the medium.
func (n *Network) NodeTraffic(id int) NodeStats { return n.perNode[id] }

// Utilization reports the fraction of elapsed virtual time the bus spent
// transmitting. Meaningful once the clock has advanced.
func (n *Network) Utilization() float64 {
	if n.eng.Now() == 0 {
		return 0
	}
	return n.stats.BusyTime.Seconds() / n.eng.Now().Seconds()
}

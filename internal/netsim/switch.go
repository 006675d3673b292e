package netsim

import (
	"fmt"

	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// Fabric is the interconnect abstraction: the shared-Ethernet bus
// (New), the SP2-style crossbar switch (NewSwitch) and the rack/spine
// hierarchy (NewHier) implement it, so the message layer and the
// experiments can swap interconnects. Each sends through one routine,
// Multicast; Unicast is Multicast to one node.
// The paper ran on the Ethernet because its applications' communication
// demands made the latency-rich network the interesting case, expecting
// that "applications with higher communication requirements will see
// similar benefits ... even on faster interconnects such as the IBM
// SP2's high-speed switch" (§4.1) — the switch model lets that claim be
// exercised.
type Fabric interface {
	// Attach registers a node and returns its id. name labels the
	// node for its caller; no fabric keeps it.
	Attach(name string, h Handler) int
	// Multicast delivers one logical message from src to every node in
	// dsts; the onWire callback, if not nil, fires when the sender's
	// link is free again. How many physical transfers that takes is the
	// fabric's business (one bus occupancy on Ethernet; one transfer per
	// destination on a switch).
	Multicast(src int, dsts []int, size int, payload interface{}, onWire func())
	// Unicast is Multicast to the one node dst.
	Unicast(src, dst, size int, payload interface{}, onWire func())
	// Nodes reports the number of attached nodes.
	Nodes() int
	// Stats returns a snapshot of the fabric counters.
	Stats() Stats
	// Engine returns the simulation engine.
	Engine() *sim.Engine
}

var (
	_ Fabric = (*Network)(nil)
	_ Fabric = (*Switch)(nil)
)

// SwitchConfig describes an SP2-class crossbar switch: every node has a
// dedicated full-duplex link into a non-blocking fabric, so transfers
// between disjoint pairs proceed in parallel and only a sender's own
// egress link serializes its traffic.
type SwitchConfig struct {
	// LinkBandwidthBps is the per-node link rate (the SP2's high
	// performance switch delivered ~40 MB/s per node).
	LinkBandwidthBps float64
	// Latency is the end-to-end fabric latency per packet.
	Latency sim.Duration
	// FrameOverhead is the per-message protocol header, in bytes.
	FrameOverhead int
}

// DefaultSwitchConfig returns SP2-high-performance-switch-scale
// parameters.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{
		LinkBandwidthBps: 320e6, // ~40 MB/s
		Latency:          40 * sim.Microsecond,
		FrameOverhead:    64,
	}
}

// Switch is a non-blocking crossbar interconnect.
type Switch struct {
	eng      *sim.Engine
	cfg      SwitchConfig
	handlers []Handler

	egressFreeAt []sim.Time  // per source node
	lanes        []*sim.Lane // per source node: its egress link's deliveries
	stats        Stats

	// Windowed series resolved by SetSeries (nil when off).
	serBusy    *tseries.Series
	serBacklog *tseries.Series

	// frames is the free list of pooled delivery callbacks (one per
	// in-flight transfer; a multicast uses one per destination since
	// the switch sends one copy per receiver).
	frames []*swFrame

	dst1 [1]int // Unicast's destination list
}

// swFrame is a pooled in-flight switch transfer: the delivery callback
// booked for one destination's arrival on the sender's egress lane. A
// link lands its transfers in the order it sends them, so the lane's
// times only grow. See Network's frame type — same trick,
// per-destination because the crossbar has no shared medium.
type swFrame struct {
	s       *Switch
	src     int
	dst     int
	payload interface{}
	sentAt  sim.Time
}

// getFrame takes a transfer object from the pool (or allocates one).
func (s *Switch) getFrame(src, dst int, payload interface{}, sentAt sim.Time) *swFrame {
	var f *swFrame
	if ln := len(s.frames); ln > 0 {
		f = s.frames[ln-1]
		s.frames[ln-1] = nil
		s.frames = s.frames[:ln-1]
	} else {
		f = &swFrame{s: s}
	}
	f.src, f.dst, f.payload, f.sentAt = src, dst, payload, sentAt
	return f
}

// Run delivers the transfer and returns the object to the pool.
func (f *swFrame) Run() {
	s := f.s
	s.stats.Delivered++
	s.handlers[f.dst](f.src, f.payload, f.sentAt)
	f.payload = nil
	s.frames = append(s.frames, f)
}

// SetSeries wires the switch's windowed simulated-time series into
// set: counter "net.busy_us" (microseconds of egress-link occupancy,
// attributed to the window each transfer started in) and gauge
// "net.backlog_us" (per-send egress backlog — how long the sender's
// own link made the transfer wait). Strictly observational; a nil set
// is a no-op.
func (s *Switch) SetSeries(set *tseries.Set) {
	s.serBusy = set.Counter("net.busy_us")
	s.serBacklog = set.Gauge("net.backlog_us")
}

// NewSwitch creates a switch fabric on eng. It panics on a
// configuration that fails Validate.
func NewSwitch(eng *sim.Engine, cfg SwitchConfig) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Switch{eng: eng, cfg: cfg}
}

// Engine returns the engine the switch is attached to.
func (s *Switch) Engine() *sim.Engine { return s.eng }

// Attach registers a node with the switch and returns its id.
func (s *Switch) Attach(name string, h Handler) int {
	s.handlers = append(s.handlers, h)
	s.egressFreeAt = append(s.egressFreeAt, 0)
	s.lanes = append(s.lanes, s.eng.NewLane())
	return len(s.handlers) - 1
}

// Nodes reports the number of attached nodes.
func (s *Switch) Nodes() int { return len(s.handlers) }

func (s *Switch) txTime(size int) sim.Duration {
	bits := float64(size+s.cfg.FrameOverhead) * 8
	return sim.DurationOf(bits / s.cfg.LinkBandwidthBps)
}

// Unicast is Multicast to the one node dst.
func (s *Switch) Unicast(src, dst, size int, payload interface{}, onWire func()) {
	s.dst1[0] = dst
	s.Multicast(src, s.dst1[:], size, payload, onWire)
}

// Multicast sends one copy per destination: a switch has no broadcast
// medium, so a multicast costs the sender one egress transmission per
// receiver — the structural difference from the Ethernet that makes
// all-to-all exchanges scale differently on the two fabrics.
func (s *Switch) Multicast(src int, dsts []int, size int, payload interface{}, onWire func()) {
	if src < 0 || src >= len(s.handlers) {
		panic(fmt.Sprintf("netsim: send from unknown node %d", src))
	}
	for _, dst := range dsts {
		if dst < 0 || dst >= len(s.handlers) {
			panic(fmt.Sprintf("netsim: send to unknown node %d", dst))
		}
	}
	now := s.eng.Now()
	start := now
	if s.egressFreeAt[src] > start {
		start = s.egressFreeAt[src]
	}
	if tr := s.eng.Tracer(); tr != nil {
		// Per-sender egress backlog: how long this multicast waits for
		// the node's own link (the switch's only queueing point).
		tr.Emit(trace.Event{TS: int64(now), Ph: trace.PhaseCounter,
			Pid: trace.PidNet, Tid: src, Cat: "net", Name: "egress",
			K1: "backlog_us", V1: int64(start.Sub(now)) / 1000,
			K2: "fanout", V2: int64(len(dsts))})
	}
	s.serBacklog.Add(now, float64(start.Sub(now))/1e3)
	for _, dst := range dsts {
		tx := s.txTime(size)
		s.stats.Frames++
		s.stats.Bytes += int64(size + s.cfg.FrameOverhead)
		s.stats.BusyTime += tx
		s.stats.QueueDelay += start.Sub(now)
		s.serBusy.Add(start, float64(tx)/1e3)
		end := start.Add(tx)
		s.lanes[src].Book(end.Add(s.cfg.Latency), s.getFrame(src, dst, payload, now))
		start = end
	}
	s.egressFreeAt[src] = start
	if onWire != nil {
		s.eng.Schedule(start, onWire)
	}
}

// Stats returns a snapshot of the switch counters.
func (s *Switch) Stats() Stats { return s.stats }

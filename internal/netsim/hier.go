package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"nscc/internal/sim"
	"nscc/internal/xrand"
)

// HierConfig describes a hierarchical rack/spine interconnect: nodes
// live on per-rack shared buses (each a copy of the paper's Ethernet),
// and racks talk through dedicated full-duplex uplinks into a
// store-and-forward spine. This is the fabric shape a 1000+-node
// cluster actually has — a single shared bus saturates at a few tens of
// chattering nodes, while racks keep local traffic local and only
// inter-rack frames pay for (and queue on) the uplinks.
type HierConfig struct {
	// RackSize is the number of nodes per rack bus. Node id n lives in
	// rack n/RackSize.
	RackSize int
	// Bus parameterizes each rack's shared medium. ContentionBackoff is
	// ignored here: rack buses are pure FIFO so the fabric stays
	// rng-free on the default path (LossProb is the only draw).
	Bus Config
	// UplinkBandwidthBps is the rack-to-spine link rate, applied to
	// both the uplink (source rack to spine) and the downlink (spine to
	// destination rack). Each is an independent FIFO queue.
	UplinkBandwidthBps float64
	// SpineLatency is the store-and-forward crossing time between an
	// uplink's tail and the matching downlink's head.
	SpineLatency sim.Duration
}

// DefaultHierConfig returns a cluster of 32-node paper-Ethernet racks
// behind 100 Mbps uplinks — roughly the "building full of the paper's
// departmental networks joined by a faster backbone" the scaling
// experiments model.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		RackSize:           32,
		Bus:                DefaultConfig(),
		UplinkBandwidthBps: 100e6,
		SpineLatency:       20 * sim.Microsecond,
	}
}

// Hier is the hierarchical fabric. Every link — each rack bus, each
// uplink, each downlink — is modeled as a FIFO queue by reservation:
// the link's freeAt clock is advanced at send time, so a frame's whole
// store-and-forward itinerary is priced when it is offered. Each Unicast
// or Multicast call then schedules one engine event per distinct
// arrival time among its destinations, delivering every destination
// due at that time. A cluster-wide broadcast therefore queues at most
// one event per rack, not one per node, and the event population stays
// O(messages), not O(messages × hops) or O(messages × receivers),
// which is what makes million-message runs tractable. The call's frame
// holds its destinations as runs (see hFrame), so a broadcast's frame
// is about one run per rack, too.
type Hier struct {
	eng      *sim.Engine
	cfg      HierConfig
	handlers []Handler
	names    []string

	busFreeAt  []sim.Time // per rack: the shared medium
	upFreeAt   []sim.Time // per rack: rack → spine
	downFreeAt []sim.Time // per rack: spine → rack

	queued int
	stats  Stats

	// Multicast scratch: rackAt memoizes the delivery time computed for
	// each destination rack within one call, rackStamp marks which
	// entries belong to the current call (stamp), so grouping the
	// destination list by rack allocates nothing.
	rackAt    []sim.Time
	rackStamp []uint64
	stamp     uint64

	// frames is the free list of pooled in-flight calls (see Network's
	// frame type for the idiom).
	frames []*hFrame

	// bcast is Broadcast's reusable destination list.
	bcast []int

	rng lossRng
}

// lossRng defers constructing the loss rng until the first draw, so the
// default lossless configuration consumes no rng stream at all and
// fault injection stays an orthogonal concern (faults.Injector).
type lossRng struct {
	eng *sim.Engine
	rng *xrand.Rand
}

func (l *lossRng) Float64() float64 {
	if l.rng == nil {
		l.rng = l.eng.NewRng(1<<20 + 1)
	}
	return l.rng.Float64()
}

var _ Fabric = (*Hier)(nil)

// hFrame is one pooled Unicast or Multicast call in flight. Its
// surviving destinations are stored as runs: a run is consecutive node
// ids, adjacent in the call's destination list, that share one arrival
// time, so a cluster-wide broadcast is about one run per rack rather
// than one entry per node. The runs are ordered by arrival time and,
// among equal times, by position in the list. Because a run's members
// are adjacent in the list and share their time, that is exactly the
// destinations' own stable order by time. The frame is scheduled once
// per distinct arrival time. A call queues its events back to back and
// the engine fires equal-time events in queueing order, so every
// delivery happens exactly where a separate event per destination,
// queued in list order, would have put it.
type hFrame struct {
	h       *Hier
	src     int
	payload interface{}
	sentAt  sim.Time
	runs    []hRun
	next    int // first run with undelivered destinations
}

// hRun is the destinations lo..hi-1 of a call, all arriving at at.
type hRun struct {
	at     sim.Time
	lo, hi int32
}

func (h *Hier) getFrame(src int, payload interface{}, sentAt sim.Time) *hFrame {
	var f *hFrame
	if ln := len(h.frames); ln > 0 {
		f = h.frames[ln-1]
		h.frames[ln-1] = nil
		h.frames = h.frames[:ln-1]
	} else {
		f = &hFrame{h: h}
	}
	f.src, f.payload, f.sentAt = src, payload, sentAt
	return f
}

func (h *Hier) putFrame(f *hFrame) {
	f.payload = nil
	f.runs = f.runs[:0]
	f.next = 0
	h.frames = append(h.frames, f)
}

// add records one destination's arrival, applying per-delivery loss.
// Calls come in destination-list order, so the loss draws keep it. A
// surviving destination extends the last run when it is that run's next
// node id and arrives at the same time; a lost one is left out, so the
// runs list exactly the survivors in list order.
func (f *hFrame) add(at sim.Time, dst int) {
	h := f.h
	if p := h.cfg.Bus.LossProb; p > 0 && h.rng.Float64() < p {
		h.stats.Dropped++
		return
	}
	if n := len(f.runs); n > 0 {
		if r := &f.runs[n-1]; r.at == at && int(r.hi) == dst {
			r.hi++
			return
		}
	}
	f.runs = append(f.runs, hRun{at, int32(dst), int32(dst) + 1})
}

// post queues the frame's deliveries: one event per distinct arrival
// time, or none (and the frame back to the pool) when every
// destination was lost.
func (h *Hier) post(f *hFrame) {
	if len(f.runs) == 0 {
		h.putFrame(f)
		return
	}
	slices.SortStableFunc(f.runs, func(a, b hRun) int { return cmp.Compare(a.at, b.at) })
	for i, r := range f.runs {
		h.queued += int(r.hi - r.lo)
		if i == 0 || r.at != f.runs[i-1].at {
			h.eng.ScheduleRunner(r.at, f)
		}
	}
	if h.queued > h.stats.MaxQueueLen {
		h.stats.MaxQueueLen = h.queued
	}
}

// Run delivers every destination due at the earliest undelivered
// arrival time, run by run and id by id, and returns the frame to the
// pool after the last one.
func (f *hFrame) Run() {
	h := f.h
	at := f.runs[f.next].at
	for ; f.next < len(f.runs) && f.runs[f.next].at == at; f.next++ {
		r := &f.runs[f.next]
		for r.lo < r.hi {
			dst := r.lo
			r.lo++
			h.queued--
			h.stats.Delivered++
			h.handlers[dst](f.src, f.payload, f.sentAt)
		}
	}
	if f.next == len(f.runs) {
		h.putFrame(f)
	}
}

// NewHier creates a hierarchical fabric on eng. It panics on a
// configuration that fails Validate.
func NewHier(eng *sim.Engine, cfg HierConfig) *Hier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hier{eng: eng, cfg: cfg, rng: lossRng{eng: eng}}
}

// Engine returns the engine the fabric is attached to.
func (h *Hier) Engine() *sim.Engine { return h.eng }

// Config returns the fabric configuration.
func (h *Hier) Config() HierConfig { return h.cfg }

// Attach registers a node and returns its id; rack link state grows as
// node ids cross rack boundaries.
func (h *Hier) Attach(name string, hd Handler) int {
	id := len(h.handlers)
	h.handlers = append(h.handlers, hd)
	h.names = append(h.names, name)
	for rack := id / h.cfg.RackSize; rack >= len(h.busFreeAt); {
		h.busFreeAt = append(h.busFreeAt, 0)
		h.upFreeAt = append(h.upFreeAt, 0)
		h.downFreeAt = append(h.downFreeAt, 0)
		h.rackAt = append(h.rackAt, 0)
		h.rackStamp = append(h.rackStamp, 0)
	}
	return id
}

// Nodes reports the number of attached nodes.
func (h *Hier) Nodes() int { return len(h.handlers) }

// NodeName returns the name a node registered with.
func (h *Hier) NodeName(id int) string { return h.names[id] }

// RackOf returns the rack a node lives in.
func (h *Hier) RackOf(id int) int { return id / h.cfg.RackSize }

// Racks reports the number of racks with at least one attached node.
func (h *Hier) Racks() int { return len(h.busFreeAt) }

func (h *Hier) busTx(size int) sim.Duration {
	bits := float64(size+h.cfg.Bus.FrameOverhead) * 8
	return sim.DurationOf(bits / h.cfg.Bus.BandwidthBps)
}

func (h *Hier) linkTx(size int) sim.Duration {
	bits := float64(size+h.cfg.Bus.FrameOverhead) * 8
	return sim.DurationOf(bits / h.cfg.UplinkBandwidthBps)
}

// reserve advances a link's freeAt clock past one transmission starting
// no earlier than ready, accumulating the queue and occupancy stats,
// and returns when the transmission completes.
func (h *Hier) reserve(freeAt *sim.Time, ready sim.Time, tx sim.Duration, size int) sim.Time {
	start := ready
	if *freeAt > start {
		start = *freeAt
	}
	h.stats.QueueDelay += start.Sub(ready)
	h.stats.BusyTime += tx
	h.stats.Bytes += int64(size + h.cfg.Bus.FrameOverhead)
	end := start.Add(tx)
	*freeAt = end
	return end
}

// srcAdmit prices the source-rack bus occupancy shared by every path
// out of src — the sender's NIC is free (onWire) when it completes.
func (h *Hier) srcAdmit(src, size int, onWire func()) sim.Time {
	h.stats.Frames++
	endBus := h.reserve(&h.busFreeAt[h.RackOf(src)], h.eng.Now(), h.busTx(size), size)
	if onWire != nil {
		h.eng.Schedule(endBus, onWire)
	}
	return endBus
}

// remoteDeliverAt prices the store-and-forward itinerary of one frame
// copy from the source rack's uplink to the destination rack's bus:
// uplink (queued behind earlier departures), spine crossing, downlink,
// then the destination rack's shared medium.
func (h *Hier) remoteDeliverAt(endBus sim.Time, srcRack, dstRack, size int) sim.Time {
	upEnd := h.reserve(&h.upFreeAt[srcRack], endBus.Add(h.cfg.Bus.PropDelay), h.linkTx(size), size)
	downEnd := h.reserve(&h.downFreeAt[dstRack], upEnd.Add(h.cfg.SpineLatency), h.linkTx(size), size)
	busEnd := h.reserve(&h.busFreeAt[dstRack], downEnd, h.busTx(size), size)
	return busEnd.Add(h.cfg.Bus.PropDelay)
}

// Send transmits payload from src to dst.
func (h *Hier) Send(src, dst, size int, payload interface{}) {
	h.Unicast(src, dst, size, payload, nil)
}

// Unicast transmits payload to one destination. Same-rack traffic costs
// one bus occupancy plus propagation, exactly like the flat Network;
// cross-rack traffic additionally queues on the source uplink, crosses
// the spine, queues on the destination downlink, and finally occupies
// the destination rack's bus.
func (h *Hier) Unicast(src, dst, size int, payload interface{}, onWire func()) {
	if src < 0 || src >= len(h.handlers) {
		panic(fmt.Sprintf("netsim: send from unknown node %d", src))
	}
	if dst < 0 || dst >= len(h.handlers) {
		panic(fmt.Sprintf("netsim: send to unknown node %d", dst))
	}
	f := h.getFrame(src, payload, h.eng.Now())
	endBus := h.srcAdmit(src, size, onWire)
	rs, rd := h.RackOf(src), h.RackOf(dst)
	at := endBus.Add(h.cfg.Bus.PropDelay)
	if rs != rd {
		at = h.remoteDeliverAt(endBus, rs, rd, size)
	}
	f.add(at, dst)
	h.post(f)
}

// Multicast delivers one logical message to every node in dsts. The
// source rack's bus carries the frame once, reaching all same-rack
// destinations as a broadcast medium would; each *distinct* destination
// rack then receives exactly one forwarded copy (uplink + spine +
// downlink + that rack's bus), shared by all of its destinations — so a
// cluster-wide broadcast costs O(racks) wire crossings, not O(nodes).
func (h *Hier) Multicast(src int, dsts []int, size int, payload interface{}, onWire func()) {
	if len(dsts) == 1 {
		h.Unicast(src, dsts[0], size, payload, onWire)
		return
	}
	if src < 0 || src >= len(h.handlers) {
		panic(fmt.Sprintf("netsim: multicast from unknown node %d", src))
	}
	for _, dst := range dsts {
		if dst < 0 || dst >= len(h.handlers) {
			panic(fmt.Sprintf("netsim: send to unknown node %d", dst))
		}
	}
	f := h.getFrame(src, payload, h.eng.Now())
	endBus := h.srcAdmit(src, size, onWire)
	rs := h.RackOf(src)
	localAt := endBus.Add(h.cfg.Bus.PropDelay)
	h.stamp++
	// Uplink copies depart in destination-list order (first appearance
	// of each rack), so the itinerary — and therefore the delivery
	// schedule — is a pure function of the call sequence: determinism
	// holds at any worker count because the fabric runs under the
	// single-threaded engine.
	for _, dst := range dsts {
		rd := h.RackOf(dst)
		at := localAt
		if rd != rs {
			if h.rackStamp[rd] != h.stamp {
				h.rackStamp[rd] = h.stamp
				h.rackAt[rd] = h.remoteDeliverAt(endBus, rs, rd, size)
			}
			at = h.rackAt[rd]
		}
		f.add(at, dst)
	}
	h.post(f)
}

// Broadcast multicasts payload from src to every other attached node:
// one source-bus occupancy plus one forwarded copy per remote rack. The
// destination list lives in a reusable buffer (Multicast does not
// retain it past the call).
func (h *Hier) Broadcast(src, size int, payload interface{}) {
	dsts := h.bcast[:0]
	for dst := range h.handlers {
		if dst != src {
			dsts = append(dsts, dst)
		}
	}
	h.bcast = dsts
	h.Multicast(src, dsts, size, payload, nil)
}

// Stats returns a snapshot of the fabric counters.
func (h *Hier) Stats() Stats { return h.stats }

// Utilization reports the fraction of elapsed virtual time the fabric's
// links (all racks and uplinks summed) spent transmitting.
func (h *Hier) Utilization() float64 {
	if h.eng.Now() == 0 {
		return 0
	}
	return h.stats.BusyTime.Seconds() / h.eng.Now().Seconds()
}

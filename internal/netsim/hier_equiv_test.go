package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"nscc/internal/sim"
)

// refHier is the per-destination delivery schedule that Hier's grouped
// one replaces: one engine event per surviving destination, queued in
// destination-list order right after the loss draw. It prices frames
// and keeps its counters through a Hier of its own, so the two differ
// only in how deliveries are queued.
type refHier struct {
	*Hier
	// rackTies counts deliveries listed after a delivery of the same
	// call that arrives at the same time in a higher rack: the ties a
	// schedule ordered by rack would get wrong.
	rackTies *int
}

func (r refHier) schedule(at sim.Time, src, dst int, payload interface{}, sentAt sim.Time) bool {
	h := r.Hier
	if p := h.cfg.Bus.LossProb; p > 0 && h.rng.Float64() < p {
		h.stats.Dropped++
		return false
	}
	h.queued++
	if h.queued > h.stats.MaxQueueLen {
		h.stats.MaxQueueLen = h.queued
	}
	h.eng.Schedule(at, func() {
		h.queued--
		h.stats.Delivered++
		h.handlers[dst](src, payload, sentAt)
	})
	return true
}

func (r refHier) Unicast(src, dst, size int, payload interface{}, onWire func()) {
	h := r.Hier
	sentAt := h.eng.Now()
	endBus := h.srcAdmit(src, size, onWire)
	rs, rd := h.RackOf(src), h.RackOf(dst)
	at := endBus.Add(h.cfg.Bus.PropDelay)
	if rs != rd {
		at = h.remoteDeliverAt(endBus, rs, rd, size)
	}
	r.schedule(at, src, dst, payload, sentAt)
}

func (r refHier) Multicast(src int, dsts []int, size int, payload interface{}, onWire func()) {
	if len(dsts) == 1 {
		r.Unicast(src, dsts[0], size, payload, onWire)
		return
	}
	h := r.Hier
	sentAt := h.eng.Now()
	endBus := h.srcAdmit(src, size, onWire)
	rs := h.RackOf(src)
	localAt := endBus.Add(h.cfg.Bus.PropDelay)
	rackAt := map[int]sim.Time{}
	topRack := map[sim.Time]int{} // highest rack delivered at each time
	for _, dst := range dsts {
		rd := h.RackOf(dst)
		at := localAt
		if rd != rs {
			t, ok := rackAt[rd]
			if !ok {
				t = h.remoteDeliverAt(endBus, rs, rd, size)
				rackAt[rd] = t
			}
			at = t
		}
		if r.schedule(at, src, dst, payload, sentAt) {
			if top, ok := topRack[at]; ok && top > rd {
				*r.rackTies++
			} else {
				topRack[at] = rd
			}
		}
	}
}

// hierSender is the part of a fabric the equivalence harness drives.
type hierSender interface {
	Unicast(src, dst, size int, payload interface{}, onWire func())
	Multicast(src int, dsts []int, size int, payload interface{}, onWire func())
}

// hierOp is one fabric call of a traffic script; a single destination
// makes it a Unicast. Its payload is its index in the script.
type hierOp struct {
	at   sim.Time
	src  int
	dsts []int
	size int
}

// hierTraffic is a fabric configuration plus a traffic script: ops are
// scheduled as engine events before the run starts; the run is split
// by RunUntil at each deadline in splits, and late[i] is issued from
// outside the event loop when the i-th split returns.
type hierTraffic struct {
	seed    int64
	cfg     HierConfig
	nodes   int
	backlog [][3]sim.Time // per rack: initial bus, uplink and downlink freeAt
	ops     []hierOp
	splits  []sim.Time
	late    [][]hierOp
}

// hierRec is one line of a run's log: a delivery ('d'), an event a
// handler scheduled at its own instant ('e'), or a sender's onWire
// callback ('w').
type hierRec struct {
	at     sim.Time
	kind   byte
	node   int
	peer   int
	id     int
	sentAt sim.Time
}

// run plays the script on a fresh engine through the grouped Hier or
// the per-destination reference and returns the log and the counters.
// Handlers echo some deliveries: they schedule a log line at their own
// instant, or send a reply (payload -1-id) from inside the delivery.
func (tr hierTraffic) run(grouped bool, rackTies *int) ([]hierRec, Stats) {
	eng := sim.NewEngine(tr.seed)
	h := NewHier(eng, tr.cfg)
	var s hierSender = h
	if !grouped {
		s = refHier{h, rackTies}
	}
	var log []hierRec
	for n := 0; n < tr.nodes; n++ {
		n := n
		h.Attach("n", func(src int, payload interface{}, sentAt sim.Time) {
			id := payload.(int)
			log = append(log, hierRec{eng.Now(), 'd', n, src, id, sentAt})
			if id < 0 {
				return
			}
			if (id+n)%3 == 0 {
				eng.Schedule(eng.Now(), func() {
					log = append(log, hierRec{at: eng.Now(), kind: 'e', node: n, id: id})
				})
			}
			if (id+n)%4 == 1 {
				s.Unicast(n, src, 125, -1-id, func() {
					log = append(log, hierRec{at: eng.Now(), kind: 'w', node: n, id: -1 - id})
				})
			}
		})
	}
	for r, b := range tr.backlog {
		h.busFreeAt[r], h.upFreeAt[r], h.downFreeAt[r] = b[0], b[1], b[2]
	}
	id := 0
	issue := func(op hierOp) {
		opID := id
		id++
		onWire := func() { log = append(log, hierRec{at: eng.Now(), kind: 'w', node: op.src, id: opID}) }
		if len(op.dsts) == 1 {
			s.Unicast(op.src, op.dsts[0], op.size, opID, onWire)
		} else {
			s.Multicast(op.src, op.dsts, op.size, opID, onWire)
		}
	}
	for _, op := range tr.ops {
		op := op
		eng.Schedule(op.at, func() { issue(op) })
	}
	for i, d := range tr.splits {
		if err := eng.RunUntil(d); err != nil {
			panic(err)
		}
		for _, op := range tr.late[i] {
			issue(op)
		}
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return log, h.Stats()
}

// check runs the script through both fabrics and reports the first
// difference in their logs or counters.
func (tr hierTraffic) check(rackTies *int) error {
	want, wantSt := tr.run(false, rackTies)
	got, gotSt := tr.run(true, nil)
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("log line %d: grouped %+v, per-destination %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("grouped log has %d lines, per-destination %d", len(got), len(want))
	}
	if gotSt != wantSt {
		return fmt.Errorf("grouped stats %+v, per-destination %+v", gotSt, wantSt)
	}
	return nil
}

// genHierTraffic draws a script with round link rates and sizes, so
// arrival times tie often: within a rack, across racks of one
// multicast, and between calls made at equal times.
func genHierTraffic(seed int64) hierTraffic {
	r := rand.New(rand.NewSource(seed))
	tr := hierTraffic{
		seed: seed,
		cfg: HierConfig{
			RackSize: 1 + r.Intn(4),
			Bus: Config{
				BandwidthBps:  8e6,
				PropDelay:     sim.Duration(r.Intn(2)) * 10 * sim.Microsecond,
				FrameOverhead: r.Intn(2) * 25,
			},
			UplinkBandwidthBps: 80e6,
			SpineLatency:       100 * sim.Microsecond,
		},
		nodes: 2 + r.Intn(11),
	}
	if seed%2 == 0 {
		tr.cfg.Bus.LossProb = 0.2
	}
	sizes := []int{0, 125, 500, 1000}
	op := func(at sim.Time) hierOp {
		src := r.Intn(tr.nodes)
		var dsts []int
		switch r.Intn(3) {
		case 0:
			// A shuffled prefix of the nodes, the sender included at times.
			dsts = r.Perm(tr.nodes)[:1+r.Intn(tr.nodes)]
		case 1:
			// Ascending consecutive nodes, the sender included at times.
			lo := r.Intn(tr.nodes)
			for n := lo + 1 + r.Intn(tr.nodes-lo); lo < n; lo++ {
				dsts = append(dsts, lo)
			}
		default:
			dsts = allBut(tr.nodes, src)
		}
		return hierOp{at: at, src: src, dsts: dsts, size: sizes[r.Intn(len(sizes))]}
	}
	const tick = 250 * sim.Microsecond
	for i, n := 0, 5+r.Intn(30); i < n; i++ {
		tr.ops = append(tr.ops, op(sim.Time(r.Intn(12))*sim.Time(tick)))
	}
	at := sim.Time(0)
	for i, n := 0, r.Intn(4); i < n; i++ {
		at += sim.Time(1+r.Intn(6)) * sim.Time(tick)
		tr.splits = append(tr.splits, at)
		var late []hierOp
		for j, m := 0, r.Intn(3); j < m; j++ {
			late = append(late, op(at))
		}
		tr.late = append(tr.late, late)
	}
	return tr
}

// allBut lists every node below n but src, ascending: a broadcast's
// destinations.
func allBut(n, src int) []int {
	var dsts []int
	for dst := 0; dst < n; dst++ {
		if dst != src {
			dsts = append(dsts, dst)
		}
	}
	return dsts
}

func TestHierGroupedMatchesPerDestination(t *testing.T) {
	// Every delivery, echo and onWire callback must happen at the same
	// instant and in the same order as with one event per destination,
	// and the counters (MaxQueueLen included) must agree.
	rackTies := 0
	for seed := int64(1); seed <= 400; seed++ {
		if err := genHierTraffic(seed).check(&rackTies); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// The scripts must contain cross-rack ties listed against rack
	// order, or grouping by rack instead of list order would pass.
	if rackTies == 0 {
		t.Fatal("no multicast delivered equal arrival times to racks listed out of rack order")
	}
}

// TestHierAllButSenderMatchesPerDestination sends every-node-but-the-
// sender lists, the shape of a Bcast, from the first, a middle and the
// last node of a rack and from both nodes of a partial last rack. Each
// is followed at the same instant by a second such call from another
// node. The fabric is idle, or the destination racks' buses are
// backlogged past the forwarded copies, so that all remote racks
// receive at one time and runs join across rack boundaries. Both run
// with and without loss.
func TestHierAllButSenderMatchesPerDestination(t *testing.T) {
	const nodes = 14 // racks of 4; rack 3 holds only nodes 12 and 13
	for _, loss := range []float64{0, 0.2} {
		for _, backlog := range []sim.Time{0, sim.Time(5 * sim.Millisecond)} {
			for _, src := range []int{0, 4, 5, 7, 12, 13} {
				tr := hierTraffic{
					seed: int64(src) + 1,
					cfg: HierConfig{
						RackSize:           4,
						Bus:                Config{BandwidthBps: 8e6, LossProb: loss},
						UplinkBandwidthBps: 80e6,
						SpineLatency:       100 * sim.Microsecond,
					},
					nodes: nodes,
				}
				for r := 0; r < 4; r++ {
					b := backlog
					if r == src/4 {
						b = 0
					}
					tr.backlog = append(tr.backlog, [3]sim.Time{b, 0, 0})
				}
				other := (src + 6) % nodes
				tr.ops = []hierOp{
					{src: src, dsts: allBut(nodes, src), size: 1000},
					{src: other, dsts: allBut(nodes, other), size: 125},
				}
				if err := tr.check(new(int)); err != nil {
					t.Fatalf("loss %v, backlog %v, sender %d: %v", loss, backlog, src, err)
				}
			}
		}
	}
}

// TestHierAllButSenderRunsPerRack checks the frame a 1000-node
// every-node-but-the-sender Multicast leaves in flight: at most one run
// per rack when the sender is first or last in its rack, one more when
// the sender splits its rack in two, and all 999 destinations in them.
func TestHierAllButSenderRunsPerRack(t *testing.T) {
	for _, tc := range []struct{ src, extra int }{{0, 0}, {500, 1}, {999, 0}} {
		eng := sim.NewEngine(1)
		h := NewHier(eng, DefaultHierConfig())
		attachN(h, 1000, func(int, interface{}, sim.Time) {})
		f := &hFrame{h: h}
		h.frames = append(h.frames, f) // the call takes this frame
		h.Multicast(tc.src, allBut(1000, tc.src), 1000, nil, nil)
		n := 0
		for _, r := range f.runs {
			n += int(r.hi - r.lo)
		}
		if racks := h.Racks(); len(f.runs) > racks+tc.extra || n != 999 {
			t.Fatalf("sender %d: %d runs over %d racks holding %d destinations; want at most %d runs holding 999",
				tc.src, len(f.runs), racks, n, racks+tc.extra)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHierBroadcastQueuesOneEventPerArrivalTime(t *testing.T) {
	// A cluster-wide broadcast queues at most one event per rack (each
	// rack's copy arrives at one time), not one per destination.
	eng := sim.NewEngine(1)
	h := NewHier(eng, DefaultHierConfig())
	delivered := 0
	attachN(h, 1000, func(int, interface{}, sim.Time) { delivered++ })
	others := make([]int, 0, 999)
	for dst := 1; dst < 1000; dst++ {
		others = append(others, dst)
	}
	h.Multicast(0, others, 1000, nil, nil)
	if got, racks := eng.Pending(), h.Racks(); racks != 32 || got > racks {
		t.Fatalf("broadcast over %d racks left %d events pending, want at most one per rack", racks, got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 999 || h.Stats().MaxQueueLen != 999 {
		t.Fatalf("delivered %d, MaxQueueLen %d; want 999 each", delivered, h.Stats().MaxQueueLen)
	}
}

// FuzzHierMulticastOrder checks the grouped schedule against the
// per-destination reference on one multicast over fuzzed link backlogs.
// Byte 0 picks the rack size, byte 1 the node count, byte 2 the sender
// and loss, byte 3 the frame sizes and, with bit 0x10, a destination
// list of every node but the sender in ascending order, the shape of a
// Bcast and the fabric's longest runs. Then three bytes per rack set
// its bus, uplink and downlink backlog, and the rest, when bit 0x10 is
// clear, is the destination list, cut at 64 entries (at most 16 nodes,
// so longer lists only repeat them). A unicast from the last
// destination back to the sender is offered at the same instant, after
// the multicast.
func FuzzHierMulticastOrder(f *testing.F) {
	// 6 nodes in racks of 2: racks 1 and 2 share a bus backlog that
	// outlasts the forwarded copies, so both arrive at one time, and
	// the list names rack 2 first.
	f.Add([]byte{1, 4, 0, 1, 0, 0, 0, 7, 0, 0, 7, 0, 0, 5, 3, 4, 2, 1})
	// 12 nodes in racks of 4, a descending list.
	f.Add([]byte{3, 10, 4, 3, 0, 1, 2, 0, 1, 2, 3, 3, 3, 11, 10, 9, 8, 0, 1, 2})
	// 5 single-node racks, the 4 remote ones tied the same way and
	// listed in descending rack order, lossy.
	f.Add([]byte{0, 3, 128, 9, 0, 0, 0, 7, 0, 0, 7, 0, 0, 7, 0, 0, 7, 0, 0, 4, 3, 2, 1})
	// All but node 5 of 14 in racks of 4; racks 0, 2 and 3 share a bus
	// backlog, so nodes 0-3 form one run and nodes 8-13 another.
	f.Add([]byte{3, 12, 5, 0x11, 7, 0, 0, 0, 0, 0, 7, 0, 0, 7, 0, 0})
	// The same, lossy.
	f.Add([]byte{3, 12, 0x85, 0x11, 7, 0, 0, 0, 0, 0, 7, 0, 0, 7, 0, 0})
	// 16 single-node racks; the odd ones' buses are backlogged, so their
	// copies tie, and the even ones arrive earlier, one by one. A
	// 64-entry list with repeats makes about 60 runs, more than a sort
	// handles by insertion, so only a stable sort keeps the tied runs in
	// list order.
	f.Add([]byte{0, 14, 0, 1, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0,
		6, 3, 7, 11, 1, 2, 14, 9, 2, 6, 10, 1, 15, 9, 4, 1, 2, 7, 7, 2, 4, 2,
		9, 7, 1, 14, 10, 2, 4, 11, 11, 10, 1, 10, 10, 7, 1, 4, 1, 9, 14, 3,
		5, 7, 3, 9, 2, 10, 5, 9, 14, 11, 3, 2, 10, 10, 11, 4, 6, 2, 9, 12, 2, 10})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		tr := hierTraffic{
			seed: 1,
			cfg: HierConfig{
				RackSize:           1 + int(b[0]%4),
				Bus:                Config{BandwidthBps: 8e6},
				UplinkBandwidthBps: 80e6,
				SpineLatency:       100 * sim.Microsecond,
			},
			nodes: 2 + int(b[1]%15),
		}
		if b[2]&0x80 != 0 {
			tr.cfg.Bus.LossProb = 0.2
		}
		src := int(b[2]&0x7f) % tr.nodes
		sizes := []int{0, 125, 500, 1000}
		size, replySize := sizes[b[3]%4], sizes[b[3]>>2%4]
		allButSender := b[3]&0x10 != 0
		b = b[4:]
		racks := (tr.nodes + tr.cfg.RackSize - 1) / tr.cfg.RackSize
		const unit = 100 * sim.Microsecond
		for r := 0; r < racks && len(b) >= 3; r++ {
			tr.backlog = append(tr.backlog, [3]sim.Time{
				sim.Time(b[0]%8) * sim.Time(unit),
				sim.Time(b[1]%8) * sim.Time(unit),
				sim.Time(b[2]%8) * sim.Time(unit),
			})
			b = b[3:]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		var dsts []int
		for _, c := range b {
			dsts = append(dsts, int(c)%tr.nodes)
		}
		if allButSender {
			dsts = allBut(tr.nodes, src)
		}
		if len(dsts) == 0 {
			return
		}
		tr.ops = []hierOp{
			{src: src, dsts: dsts, size: size},
			{src: dsts[len(dsts)-1], dsts: []int{src}, size: replySize},
		}
		if err := tr.check(new(int)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHierFramesRecycle checks a finished call's frame goes back to the
// pool with no payload and no deliveries left over.
func TestHierFramesRecycle(t *testing.T) {
	eng, h := newTestHier(1)
	attachN(h, 12, func(int, interface{}, sim.Time) {})
	h.Multicast(0, []int{11, 1, 5, 2, 9}, 1000, "x", nil)
	h.Unicast(4, 0, 1000, "y", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.frames) != 2 {
		t.Fatalf("%d frames pooled after two calls, want 2", len(h.frames))
	}
	for _, f := range h.frames {
		if f.payload != nil || len(f.runs) != 0 || f.next != 0 {
			t.Fatalf("pooled frame not reset: %+v", f)
		}
	}
}

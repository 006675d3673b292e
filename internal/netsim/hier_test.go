package netsim

import (
	"testing"

	"nscc/internal/sim"
)

// newTestHier builds a fabric with round numbers: 8 Mbps rack buses
// (1000-byte frame = 1 ms), no prop delay or framing, 80 Mbps uplinks
// (1000-byte frame = 100 µs), 100 µs spine crossing, 4 nodes per rack.
func newTestHier(seed int64) (*sim.Engine, *Hier) {
	eng := sim.NewEngine(seed)
	cfg := HierConfig{
		RackSize: 4,
		Bus: Config{
			BandwidthBps:  8e6,
			PropDelay:     0,
			FrameOverhead: 0,
		},
		UplinkBandwidthBps: 80e6,
		SpineLatency:       100 * sim.Microsecond,
	}
	return eng, NewHier(eng, cfg)
}

func attachN(h *Hier, n int, hd Handler) {
	for i := 0; i < n; i++ {
		h.Attach("n", hd)
	}
}

func TestHierSameRackIsOneBusOccupancy(t *testing.T) {
	eng, h := newTestHier(1)
	var at sim.Time
	attachN(h, 1, func(int, interface{}, sim.Time) { at = eng.Now() })
	attachN(h, 1, nil)
	h.Unicast(1, 0, 1000, "x", nil) // same rack: 1 ms bus, nothing else
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(1000 * sim.Microsecond); at != want {
		t.Fatalf("same-rack delivery at %v, want %v", at, want)
	}
}

func TestHierCrossRackStoreAndForward(t *testing.T) {
	eng, h := newTestHier(1)
	var at sim.Time
	attachN(h, 4, nil) // rack 0
	h.Attach("d", func(int, interface{}, sim.Time) { at = eng.Now() })
	h.Unicast(0, 4, 1000, "x", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// source bus 1 ms + uplink 100 µs + spine 100 µs + downlink 100 µs +
	// destination bus 1 ms.
	if want := sim.Time(2300 * sim.Microsecond); at != want {
		t.Fatalf("cross-rack delivery at %v, want %v", at, want)
	}
}

func TestHierRacksIsolateLocalTraffic(t *testing.T) {
	// Simultaneous same-rack transfers in two different racks must not
	// serialize — the property the flat shared bus lacks.
	eng, h := newTestHier(1)
	var times []sim.Time
	hd := func(int, interface{}, sim.Time) { times = append(times, eng.Now()) }
	attachN(h, 8, hd) // racks 0 and 1
	h.Unicast(1, 0, 1000, nil, nil)
	h.Unicast(5, 4, 1000, nil, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1000 * sim.Microsecond)
	if len(times) != 2 || times[0] != want || times[1] != want {
		t.Fatalf("transfers in distinct racks delivered at %v, want both at %v", times, want)
	}
}

func TestHierMulticastOneCopyPerRack(t *testing.T) {
	// An 11-destination broadcast spanning 3 racks: all same-rack
	// destinations hear the one source-bus frame; each remote rack gets
	// exactly one forwarded copy that all of its destinations share.
	eng, h := newTestHier(1)
	byRack := map[int][]sim.Time{}
	for i := 0; i < 12; i++ {
		i := i
		h.Attach("n", func(int, interface{}, sim.Time) {
			byRack[i/4] = append(byRack[i/4], eng.Now())
		})
	}
	wireAt := sim.Time(-1)
	h.Multicast(0, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 1000, nil,
		func() { wireAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The sender's bus is free after its single 1 ms occupancy.
	if want := sim.Time(1000 * sim.Microsecond); wireAt != want {
		t.Fatalf("onWire at %v, want %v (one bus occupancy)", wireAt, want)
	}
	if got := byRack[0]; len(got) != 3 {
		t.Fatalf("rack 0 deliveries: %d, want 3", len(got))
	}
	for _, at := range byRack[0] {
		if at != sim.Time(1000*sim.Microsecond) {
			t.Fatalf("local delivery at %v, want 1ms", at)
		}
	}
	// Rack 1's copy: uplink 100 µs + spine 100 µs + downlink 100 µs +
	// rack bus 1 ms after the source bus.
	for _, at := range byRack[1] {
		if at != sim.Time(2300*sim.Microsecond) {
			t.Fatalf("rack 1 delivery at %v, want 2.3ms", at)
		}
	}
	// Rack 2's uplink copy departs after rack 1's (the source uplink is
	// a FIFO queue): 100 µs later at every stage that queues.
	for _, at := range byRack[2] {
		if at != sim.Time(2400*sim.Microsecond) {
			t.Fatalf("rack 2 delivery at %v, want 2.4ms", at)
		}
	}
	if got := h.Stats().Delivered; got != 11 {
		t.Fatalf("delivered %d, want 11", got)
	}
}

func TestHierUplinkQueues(t *testing.T) {
	// Back-to-back cross-rack sends from one rack serialize on the
	// shared source bus AND on the rack's uplink, arriving 1 ms apart
	// (the bus, the slower link, paces them).
	eng, h := newTestHier(1)
	var times []sim.Time
	attachN(h, 4, nil) // rack 0
	attachN(h, 4, func(int, interface{}, sim.Time) { times = append(times, eng.Now()) })
	h.Unicast(0, 4, 1000, nil, nil)
	h.Unicast(1, 5, 1000, nil, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("deliveries: %d, want 2", len(times))
	}
	if d := times[1].Sub(times[0]); d != 1000*sim.Microsecond {
		t.Fatalf("cross-rack back-to-back spacing %v, want 1ms", d)
	}
}

func TestHierLossDrops(t *testing.T) {
	eng, h := newTestHier(7)
	h.cfg.Bus.LossProb = 0.5
	delivered := 0
	attachN(h, 8, func(int, interface{}, sim.Time) { delivered++ })
	for i := 0; i < 200; i++ {
		h.Unicast(0, 5, 100, nil, nil)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Dropped == 0 || delivered == 0 {
		t.Fatalf("dropped=%d delivered=%d; want both nonzero at LossProb=0.5", st.Dropped, delivered)
	}
	if st.Dropped+int64(delivered) != 200 {
		t.Fatalf("dropped %d + delivered %d != 200 offered", st.Dropped, delivered)
	}
}

func TestHierBadNodesPanic(t *testing.T) {
	_, h := newTestHier(1)
	src := h.Attach("src", nil)
	for _, f := range []func(){
		func() { h.Unicast(src, 9, 10, nil, nil) },
		func() { h.Multicast(9, []int{src, src}, 10, nil, nil) },
		func() { h.Multicast(src, []int{src, 9}, 10, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad node did not panic")
				}
			}()
			f()
		}()
	}
}

func TestHierBeatsFlatBusForRackLocalLoad(t *testing.T) {
	// The scaling rationale: 32 nodes exchanging rack-local traffic
	// finish far sooner on 8 racks of 4 than on one shared bus carrying
	// all of it.
	run := func(f Fabric) sim.Duration {
		eng := f.Engine()
		const n = 32
		for i := 0; i < n; i++ {
			f.Attach("n", func(int, interface{}, sim.Time) {})
		}
		for round := 0; round < 10; round++ {
			for i := 0; i < n; i++ {
				peer := (i/4)*4 + (i+1)%4 // same-rack neighbor
				f.Unicast(i, peer, 1000, nil, nil)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now().Sub(0)
	}
	busEng := sim.NewEngine(1)
	busCfg := Config{BandwidthBps: 8e6, PropDelay: 0, FrameOverhead: 0}
	flat := run(New(busEng, busCfg))
	hierEng, h := newTestHier(1)
	_ = hierEng
	hier := run(h)
	if hier*4 > flat {
		t.Fatalf("hier (%v) not at least 4x faster than flat bus (%v) for rack-local load", hier, flat)
	}
}

func TestLoaderOnHier(t *testing.T) {
	eng := sim.NewEngine(2)
	h := NewHier(eng, DefaultHierConfig())
	l := StartLoader(h, 8e6)
	if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if l.Sent() == 0 || h.Stats().Delivered == 0 {
		t.Fatalf("loader sent %d, delivered %d; want both nonzero", l.Sent(), h.Stats().Delivered)
	}
}

package netsim

import (
	"testing"

	"nscc/internal/sim"
)

func newTestSwitch(seed int64) (*sim.Engine, *Switch) {
	eng := sim.NewEngine(seed)
	cfg := SwitchConfig{LinkBandwidthBps: 8e6, Latency: 100 * sim.Microsecond, FrameOverhead: 0}
	return eng, NewSwitch(eng, cfg)
}

func TestSwitchSingleTransfer(t *testing.T) {
	eng, sw := newTestSwitch(1)
	var at sim.Time
	dst := sw.Attach("dst", func(int, interface{}, sim.Time) { at = eng.Now() })
	src := sw.Attach("src", nil)
	sw.Unicast(src, dst, 1000, "x", nil) // 8000 bits / 8 Mbps = 1 ms + 100 us
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1100 * sim.Microsecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSwitchParallelPairs(t *testing.T) {
	// Disjoint pairs must not serialize: both transfers complete at the
	// single-transfer time — the crossbar property the shared bus lacks.
	eng, sw := newTestSwitch(1)
	var times []sim.Time
	h := func(int, interface{}, sim.Time) { times = append(times, eng.Now()) }
	d1 := sw.Attach("d1", h)
	d2 := sw.Attach("d2", h)
	s1 := sw.Attach("s1", nil)
	s2 := sw.Attach("s2", nil)
	sw.Unicast(s1, d1, 1000, nil, nil)
	sw.Unicast(s2, d2, 1000, nil, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1100 * sim.Microsecond)
	if len(times) != 2 || times[0] != want || times[1] != want {
		t.Fatalf("parallel transfers delivered at %v, want both at %v", times, want)
	}
}

func TestSwitchEgressSerializes(t *testing.T) {
	// Two transfers from ONE source share its egress link.
	eng, sw := newTestSwitch(1)
	var times []sim.Time
	h := func(int, interface{}, sim.Time) { times = append(times, eng.Now()) }
	sw.Attach("d1", h)
	sw.Attach("d2", h)
	src := sw.Attach("src", nil)
	sw.Unicast(src, 0, 1000, nil, nil)
	sw.Unicast(src, 1, 1000, nil, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if times[1].Sub(times[0]) != sim.Duration(1000*sim.Microsecond) {
		t.Fatalf("egress did not serialize: %v", times)
	}
}

func TestSwitchMulticastIsUnicasts(t *testing.T) {
	// No broadcast medium: a 3-destination multicast costs three egress
	// transmissions and three frames.
	eng, sw := newTestSwitch(1)
	var times []sim.Time
	h := func(int, interface{}, sim.Time) { times = append(times, eng.Now()) }
	for i := 0; i < 3; i++ {
		sw.Attach("d", h)
	}
	src := sw.Attach("src", nil)
	wireAt := sim.Time(-1)
	sw.Multicast(src, []int{0, 1, 2}, 1000, nil, func() { wireAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.Stats().Frames != 3 || sw.Stats().Delivered != 3 {
		t.Fatalf("frames=%d delivered=%d, want 3/3", sw.Stats().Frames, sw.Stats().Delivered)
	}
	for i, at := range times {
		want := sim.Time(1000 * sim.Microsecond).Add(sim.Duration(i)*1000*sim.Microsecond + 100*sim.Microsecond)
		if at != want {
			t.Fatalf("copy %d delivered at %v, want %v", i, at, want)
		}
	}
	if wireAt != sim.Time(3000*sim.Microsecond) {
		t.Fatalf("onWire at %v, want when the egress drained (3ms)", wireAt)
	}
}

func TestSwitchBadNodesPanic(t *testing.T) {
	_, sw := newTestSwitch(1)
	src := sw.Attach("src", nil)
	for _, f := range []func(){
		func() { sw.Unicast(src, 9, 10, nil, nil) },
		func() { sw.Multicast(9, []int{src}, 10, nil, nil) },
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

func TestSwitchMuchFasterThanBusForAllToAll(t *testing.T) {
	// The structural claim behind the paper's §4.1 remark: an
	// all-to-all exchange that saturates the 10 Mbps bus is trivial for
	// the switch.
	allToAll := func(f Fabric) sim.Duration {
		eng := f.Engine()
		const n = 8
		for i := 0; i < n; i++ {
			f.Attach("n", func(int, interface{}, sim.Time) {})
		}
		for round := 0; round < 20; round++ {
			for i := 0; i < n; i++ {
				dsts := []int{}
				for j := 0; j < n; j++ {
					if j != i {
						dsts = append(dsts, j)
					}
				}
				f.Multicast(i, dsts, 1000, nil, nil)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now().Sub(0)
	}
	busEng := sim.NewEngine(1)
	bus := New(busEng, DefaultConfig())
	swEng := sim.NewEngine(1)
	sw := NewSwitch(swEng, DefaultSwitchConfig())
	busTime := allToAll(bus)
	swTime := allToAll(sw)
	if swTime*10 > busTime {
		t.Fatalf("switch (%v) not at least 10x faster than bus (%v) for all-to-all", swTime, busTime)
	}
}

func TestLoaderOnSwitch(t *testing.T) {
	eng := sim.NewEngine(2)
	sw := NewSwitch(eng, DefaultSwitchConfig())
	l := StartLoader(sw, 8e6)
	if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	// 8 Mbps / 8192 bits ~ 977 msgs/s.
	if l.Sent() < 800 || l.Sent() > 1200 {
		t.Fatalf("loader sent %d messages on the switch, want ~977", l.Sent())
	}
	if sw.Stats().Delivered == 0 {
		t.Fatal("no deliveries")
	}
}

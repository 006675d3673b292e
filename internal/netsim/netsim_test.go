package netsim

import (
	"testing"
	"testing/quick"

	"nscc/internal/sim"
)

func newTestNet(seed int64, cfg Config) (*sim.Engine, *Network) {
	eng := sim.NewEngine(seed)
	return eng, New(eng, cfg)
}

// plainConfig has no contention jitter or loss, for exact-timing tests.
func plainConfig() Config {
	return Config{
		BandwidthBps:  10e6,
		PropDelay:     50 * sim.Microsecond,
		FrameOverhead: 100,
	}
}

type rcvd struct {
	src     int
	payload interface{}
	sentAt  sim.Time
	at      sim.Time
}

func collector(eng *sim.Engine, got *[]rcvd) Handler {
	return func(src int, payload interface{}, sentAt sim.Time) {
		*got = append(*got, rcvd{src, payload, sentAt, eng.Now()})
	}
}

func TestSingleFrameTiming(t *testing.T) {
	eng, net := newTestNet(1, plainConfig())
	var got []rcvd
	dst := net.Attach("dst", collector(eng, &got))
	src := net.Attach("src", nil)

	net.Unicast(src, dst, 900, "hello", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	// (900+100)*8 bits / 10 Mbps = 800 us, + 50 us propagation.
	want := sim.Time(850 * sim.Microsecond)
	if got[0].at != want {
		t.Fatalf("delivered at %v, want %v", got[0].at, want)
	}
	if got[0].payload != "hello" || got[0].src != src || got[0].sentAt != 0 {
		t.Fatalf("frame metadata wrong: %+v", got[0])
	}
}

func TestBusSerializesFrames(t *testing.T) {
	eng, net := newTestNet(1, plainConfig())
	var got []rcvd
	dst := net.Attach("dst", collector(eng, &got))
	src := net.Attach("src", nil)

	// Two frames offered at t=0 must be delivered one transmission
	// apart, not simultaneously.
	net.Unicast(src, dst, 900, 1, nil)
	net.Unicast(src, dst, 900, 2, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	gap := got[1].at.Sub(got[0].at)
	if gap != 800*sim.Microsecond {
		t.Fatalf("delivery gap %v, want 800us (one tx time)", gap)
	}
	if got[0].payload != 1 || got[1].payload != 2 {
		t.Fatalf("FIFO order violated: %v, %v", got[0].payload, got[1].payload)
	}
}

func TestQueueDelayGrowsWithLoad(t *testing.T) {
	delayFor := func(frames int) sim.Duration {
		eng, net := newTestNet(1, plainConfig())
		dst := net.Attach("dst", func(int, interface{}, sim.Time) {})
		src := net.Attach("src", nil)
		for i := 0; i < frames; i++ {
			net.Unicast(src, dst, 1400, nil, nil)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return net.Stats().QueueDelay
	}
	light, heavy := delayFor(2), delayFor(50)
	if heavy <= light*10 {
		t.Fatalf("queue delay did not grow with load: light=%v heavy=%v", light, heavy)
	}
}

func TestBroadcast(t *testing.T) {
	// A multicast to every other node is one frame on the shared bus.
	eng, net := newTestNet(1, plainConfig())
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		net.Attach("n", func(int, interface{}, sim.Time) { counts[i]++ })
	}
	net.Multicast(0, []int{1, 2, 3}, 100, "b", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 {
		t.Fatal("broadcast delivered to its own source")
	}
	for i := 1; i < 4; i++ {
		if counts[i] != 1 {
			t.Fatalf("node %d got %d frames, want 1", i, counts[i])
		}
	}
	// A broadcast occupies the shared bus exactly once.
	if net.Stats().Frames != 1 {
		t.Fatalf("Frames = %d, want 1 (single bus occupancy)", net.Stats().Frames)
	}
	if net.Stats().Delivered != 3 {
		t.Fatalf("Delivered = %d, want 3 copies", net.Stats().Delivered)
	}
}

func TestMulticastTiming(t *testing.T) {
	eng, net := newTestNet(1, plainConfig())
	var times []sim.Time
	for i := 0; i < 3; i++ {
		net.Attach("dst", func(int, interface{}, sim.Time) { times = append(times, eng.Now()) })
	}
	src := net.Attach("src", nil)
	net.Multicast(src, []int{0, 1, 2}, 900, nil, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(850 * sim.Microsecond)
	for _, at := range times {
		if at != want {
			t.Fatalf("multicast copies delivered at %v, want all at %v", times, want)
		}
	}
}

func TestLossInjection(t *testing.T) {
	cfg := plainConfig()
	cfg.LossProb = 0.5
	eng, net := newTestNet(7, cfg)
	delivered := 0
	dst := net.Attach("dst", func(int, interface{}, sim.Time) { delivered++ })
	src := net.Attach("src", nil)
	const n = 400
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Unicast(src, dst, 100, nil, nil)
			p.Sleep(sim.Millisecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Dropped+st.Delivered != n {
		t.Fatalf("dropped %d + delivered %d != %d", st.Dropped, st.Delivered, n)
	}
	if st.Dropped < n/4 || st.Dropped > 3*n/4 {
		t.Fatalf("dropped %d of %d at p=0.5: outside sane range", st.Dropped, n)
	}
}

func TestUtilization(t *testing.T) {
	eng, net := newTestNet(1, plainConfig())
	dst := net.Attach("dst", func(int, interface{}, sim.Time) {})
	src := net.Attach("src", nil)
	// Saturate: offer frames back-to-back for a while.
	eng.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			net.Unicast(src, dst, 1150, nil, nil) // 1 ms tx each
			p.Sleep(sim.Millisecond)              // exactly at capacity
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	u := net.Stats().Telemetry(eng.Now().Sub(0)).Utilization
	if u < 0.9 || u > 1.01 {
		t.Fatalf("utilization %v, want ~1.0 at saturation", u)
	}
}

func TestContentionBackoffAddsDelay(t *testing.T) {
	run := func(backoff float64) sim.Time {
		cfg := plainConfig()
		cfg.ContentionBackoff = backoff
		eng, net := newTestNet(3, cfg)
		var last sim.Time
		dst := net.Attach("dst", func(int, interface{}, sim.Time) { last = eng.Now() })
		src := net.Attach("src", nil)
		for i := 0; i < 30; i++ {
			net.Unicast(src, dst, 1000, nil, nil)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if run(2.0) <= run(0) {
		t.Fatal("contention backoff did not delay completion under a burst")
	}
}

func TestLoaderOfferedRate(t *testing.T) {
	eng, net := newTestNet(5, plainConfig())
	l := StartLoader(net, 2e6) // 2 Mbps
	horizon := sim.Time(2 * sim.Second)
	if err := eng.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	// 2 Mbps / (1024*8 bits) ~ 244 msgs/s -> ~488 over 2 s.
	if l.Sent() < 400 || l.Sent() > 580 {
		t.Fatalf("loader sent %d messages in 2s at 2 Mbps, want ~488", l.Sent())
	}
	if u := net.Stats().Telemetry(eng.Now().Sub(0)).Utilization; u < 0.15 || u > 0.3 {
		t.Fatalf("utilization %v under 2 Mbps loader, want ~0.22", u)
	}
}

func TestLoaderZeroRateInert(t *testing.T) {
	eng, net := newTestNet(5, plainConfig())
	l := StartLoader(net, 0)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Sent() != 0 || net.Stats().Frames != 0 {
		t.Fatal("zero-rate loader generated traffic")
	}
}

func TestSendToUnknownNodePanics(t *testing.T) {
	_, net := newTestNet(1, plainConfig())
	src := net.Attach("src", nil)
	defer func() {
		if recover() == nil {
			t.Error("send to unknown node did not panic")
		}
	}()
	net.Unicast(src, 99, 10, nil, nil)
}

// Property: conservation — every offered frame is either delivered or
// dropped, and pairwise FIFO holds from a single sender.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, loss bool) bool {
		n := int(nRaw%64) + 1
		cfg := DefaultConfig()
		if loss {
			cfg.LossProb = 0.3
		}
		eng, net := newTestNet(seed, cfg)
		var seq []int
		dst := net.Attach("dst", func(_ int, p interface{}, _ sim.Time) {
			seq = append(seq, p.(int))
		})
		src := net.Attach("src", nil)
		for i := 0; i < n; i++ {
			net.Unicast(src, dst, 200, i, nil)
		}
		if err := eng.Run(); err != nil {
			return false
		}
		st := net.Stats()
		if st.Delivered+st.Dropped != int64(n) {
			return false
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] <= seq[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

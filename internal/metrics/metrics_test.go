package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nscc/internal/sim"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if a.Max() != 9 {
		t.Fatalf("Max = %v, want 9", a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Max() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
	a.Add(-3)
	if a.Mean() != -3 || a.Max() != -3 {
		t.Fatal("single negative sample mean/max wrong")
	}
}

func TestProportionCI(t *testing.T) {
	if !math.IsInf(ProportionCI90HalfWidth(0.5, 1), 1) {
		t.Fatal("n=1 should give +Inf")
	}
	w := ProportionCI90HalfWidth(0.5, 6765)
	// 1.645*sqrt(0.25/6765) ~ 0.01 — the paper's stopping precision.
	if math.Abs(w-0.01) > 0.0005 {
		t.Fatalf("half-width = %v, want ~0.01", w)
	}
	if ProportionCI90HalfWidth(0.1, 1000) >= ProportionCI90HalfWidth(0.5, 1000) {
		t.Fatal("extreme proportions should have narrower CI")
	}
}

func TestWarpStableNetwork(t *testing.T) {
	w := NewWarpMeter(0)
	// Constant delay: arrival spacing == send spacing -> warp 1.
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		w.Observe(0, 1, at, at.Add(5*sim.Microsecond))
	}
	if w.Samples() != 9 {
		t.Fatalf("samples = %d, want 9", w.Samples())
	}
	if math.Abs(w.Mean()-1) > 1e-9 || math.Abs(w.Max()-1) > 1e-9 {
		t.Fatalf("stable network warp = mean %v max %v, want 1", w.Mean(), w.Max())
	}
}

func TestWarpRisingLoad(t *testing.T) {
	w := NewWarpMeter(0)
	// Send every 1 ms; queuing delay grows 1 ms per message: arrival
	// spacing 2 ms -> warp 2.
	for i := 0; i < 10; i++ {
		sent := sim.Time(i) * sim.Time(sim.Millisecond)
		arr := sent.Add(sim.Duration(i+1) * sim.Millisecond)
		w.Observe(0, 1, sent, arr)
	}
	if math.Abs(w.Mean()-2) > 1e-9 {
		t.Fatalf("rising-load warp = %v, want 2", w.Mean())
	}
}

func TestWarpPerPairTracking(t *testing.T) {
	w := NewWarpMeter(0)
	// Interleaved senders must not contaminate each other's deltas.
	w.Observe(0, 1, 0, 10)
	w.Observe(0, 2, 5, 1000)
	w.Observe(0, 1, sim.Time(sim.Millisecond), sim.Time(sim.Millisecond).Add(10))
	if w.Samples() != 1 {
		t.Fatalf("samples = %d, want 1", w.Samples())
	}
	if math.Abs(w.Mean()-1) > 1e-9 {
		t.Fatalf("warp = %v, want 1", w.Mean())
	}
}

func TestWarpNoSamples(t *testing.T) {
	w := NewWarpMeter(0)
	if w.Mean() != 1 || w.Max() != 1 {
		t.Fatal("empty meter should report warp 1 (stable)")
	}
}

// Property: the running mean and max agree with the direct formulas
// over the whole sample.
func TestAccumulatorMatchesTwoPass(t *testing.T) {
	f := func(xsRaw []int16) bool {
		if len(xsRaw) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		hi := float64(xsRaw[0])
		for _, v := range xsRaw {
			a.Add(float64(v))
			sum += float64(v)
			hi = math.Max(hi, float64(v))
		}
		mean := sum / float64(len(xsRaw))
		return math.Abs(a.Mean()-mean) < 1e-9*math.Max(1, math.Abs(mean)) &&
			a.Max() == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWarpSeriesWindows(t *testing.T) {
	ws := NewWarpMeter(10 * sim.Millisecond)
	// First window: stable (spacing preserved). Second window: doubling
	// arrival spacing (warp 2).
	for i := 0; i < 5; i++ {
		sent := sim.Time(i) * sim.Time(sim.Millisecond)
		ws.Observe(0, 1, sent, sent.Add(100*sim.Microsecond))
	}
	for i := 0; i < 5; i++ {
		sent := sim.Time(12+i) * sim.Time(sim.Millisecond)
		arr := sim.Time(12 * sim.Millisecond).Add(sim.Duration(i) * 2 * sim.Millisecond)
		ws.Observe(0, 1, sent, arr)
	}
	win := ws.Windows()
	if len(win) < 2 {
		t.Fatalf("windows = %v", win)
	}
	if math.Abs(win[0]-1) > 1e-9 {
		t.Fatalf("stable window warp %v, want 1", win[0])
	}
	if slices.Max(win) < 1.5 {
		t.Fatalf("unstable window never registered: %v", win)
	}
}

func TestWarpSeriesEmptyWindowsAreStable(t *testing.T) {
	ws := NewWarpMeter(sim.Millisecond)
	ws.Observe(0, 1, 0, sim.Time(10*sim.Millisecond))
	ws.Observe(0, 1, sim.Time(sim.Millisecond), sim.Time(11*sim.Millisecond))
	win := ws.Windows()
	for i, w := range win[:10] {
		if w != 1 {
			t.Fatalf("empty window %d has warp %v", i, w)
		}
	}
	if slices.Max(win) != 1 {
		t.Fatalf("stable series max %v", slices.Max(win))
	}
}

func TestWarpSeriesBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative window did not panic")
		}
	}()
	NewWarpMeter(-1)
}

// TestWarpMeterMatchesReferencePairing holds the meter's single pairing
// to a reference that pairs a random arrival stream on its own: the
// mean, the max, the sample count and every window mean must be equal
// bit for bit, and a meter without a window must agree on the whole-run
// figures.
func TestWarpMeterMatchesReferencePairing(t *testing.T) {
	const window = 3 * sim.Millisecond
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		windowed, plain := NewWarpMeter(window), NewWarpMeter(0)
		last := map[[2]int][2]sim.Time{}
		var all Accumulator
		var wins []Accumulator
		clock := make([]sim.Time, 4) // per-sender send clock
		for i, n := 0, rng.Intn(400); i < n; i++ {
			dst, src := rng.Intn(3), rng.Intn(4)
			// Send times repeat now and then, so some pairs have zero
			// spacing and yield no sample.
			clock[src] = clock[src].Add(sim.Duration(rng.Intn(3)) * 200 * sim.Microsecond)
			sent := clock[src]
			arr := sent.Add(sim.Duration(rng.Intn(5000)) * sim.Microsecond)
			windowed.Observe(dst, src, sent, arr)
			plain.Observe(dst, src, sent, arr)

			idx := int(int64(arr) / int64(window))
			for len(wins) <= idx {
				wins = append(wins, Accumulator{})
			}
			key := [2]int{dst, src}
			prev, ok := last[key]
			last[key] = [2]sim.Time{sent, arr}
			if ds := sent.Sub(prev[0]).Seconds(); ok && ds > 0 {
				s := arr.Sub(prev[1]).Seconds() / ds
				all.Add(s)
				wins[idx].Add(s)
			}
		}
		wantMean, wantMax := 1.0, 1.0
		if all.N() > 0 {
			wantMean, wantMax = all.Mean(), all.Max()
		}
		wantWins := make([]float64, len(wins))
		for i := range wins {
			wantWins[i] = 1
			if wins[i].N() > 0 {
				wantWins[i] = wins[i].Mean()
			}
		}
		for name, w := range map[string]*WarpMeter{"windowed": windowed, "plain": plain} {
			if w.Samples() != all.N() || w.Mean() != wantMean || w.Max() != wantMax {
				t.Fatalf("trial %d, %s: samples/mean/max %d/%v/%v, reference %d/%v/%v",
					trial, name, w.Samples(), w.Mean(), w.Max(), all.N(), wantMean, wantMax)
			}
		}
		if got := windowed.Windows(); !slices.Equal(got, wantWins) {
			t.Fatalf("trial %d: windows %v, reference %v", trial, got, wantWins)
		}
		if got := plain.Windows(); len(got) != 0 {
			t.Fatalf("trial %d: a meter without a window kept windows %v", trial, got)
		}
	}
}

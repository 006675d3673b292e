package faults

import (
	"testing"

	"nscc/internal/netsim"
	"nscc/internal/sim"
)

type rcvd struct {
	src     int
	payload interface{}
	at      sim.Time
}

// harness builds an engine and a fabric wrapped by plan, attaches one
// receiver collecting into got and one mute sender, and returns the
// pieces. A nil plan still wraps (the injector must be a no-op then).
func harness(seed int64, plan *Plan, got *[]rcvd) (*sim.Engine, *Injector, int, int) {
	eng := sim.NewEngine(seed)
	inner := netsim.New(eng, netsim.DefaultConfig())
	inj := Wrap(inner, plan)
	dst := inj.Attach("dst", func(src int, payload interface{}, sentAt sim.Time) {
		*got = append(*got, rcvd{src, payload, eng.Now()})
	})
	src := inj.Attach("src", nil)
	return eng, inj, src, dst
}

// TestEmptyPlanIsNoOp sends the same traffic through a bare fabric and
// through an injector with an empty plan: delivery times, payload
// order, and fabric stats must be byte-identical. This is the opt-in
// guarantee the whole subsystem rests on.
func TestEmptyPlanIsNoOp(t *testing.T) {
	run := func(wrap bool) ([]rcvd, netsim.Stats) {
		eng := sim.NewEngine(42)
		inner := netsim.New(eng, netsim.DefaultConfig())
		var fab netsim.Fabric = inner
		if wrap {
			fab = Wrap(inner, nil)
		}
		var got []rcvd
		dst := fab.Attach("dst", func(src int, payload interface{}, sentAt sim.Time) {
			got = append(got, rcvd{src, payload, eng.Now()})
		})
		src := fab.Attach("src", nil)
		for i := 0; i < 20; i++ {
			i := i
			eng.Schedule(sim.Time(i)*sim.Time(sim.Millisecond), func() {
				fab.Unicast(src, dst, 400, i, nil)
			})
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return got, fab.Stats()
	}
	bare, bareStats := run(false)
	wrapped, wrappedStats := run(true)
	if len(bare) != len(wrapped) {
		t.Fatalf("delivered %d vs %d frames", len(bare), len(wrapped))
	}
	for i := range bare {
		if bare[i] != wrapped[i] {
			t.Fatalf("frame %d differs: %+v vs %+v", i, bare[i], wrapped[i])
		}
	}
	if bareStats != wrappedStats {
		t.Fatalf("stats differ: %+v vs %+v", bareStats, wrappedStats)
	}
}

func TestLossBurstDropsFrames(t *testing.T) {
	var got []rcvd
	plan := &Plan{Loss: []LossBurst{{From: 0, To: 10, Prob: 1, Src: AnyNode, Dst: AnyNode}}}
	eng, inj, src, dst := harness(1, plan, &got)
	for i := 0; i < 5; i++ {
		inj.Unicast(src, dst, 200, i, nil)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d frames survived a prob-1 loss burst", len(got))
	}
	if st := inj.FaultStats(); st.LossDrops != 5 {
		t.Fatalf("LossDrops = %d, want 5", st.LossDrops)
	}
	// The overlay must move the swallowed frames to Dropped.
	if st := inj.Stats(); st.Dropped < 5 {
		t.Fatalf("overlay Dropped = %d, want >= 5", st.Dropped)
	}
}

func TestLossBurstLinkSelector(t *testing.T) {
	var got []rcvd
	// Only the src=1 -> dst=0 link is lossy; the reverse link is not
	// exercised, and a burst naming a different src must not match.
	plan := &Plan{Loss: []LossBurst{
		{From: 0, To: 10, Prob: 1, Src: 0, Dst: 1}, // other direction: no match
	}}
	eng, inj, src, dst := harness(1, plan, &got)
	inj.Unicast(src, dst, 200, "through", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].payload != "through" {
		t.Fatalf("frame on unmatched link was dropped: %+v", got)
	}
}

func TestCrashWindowDropsThenRecovers(t *testing.T) {
	var got []rcvd
	// Receiver (node 0 in attach order) crashed during [0, 5ms).
	plan := &Plan{Crashes: []CrashWindow{{Node: 0, From: 0, To: 0.005}}}
	eng, inj, src, dst := harness(1, plan, &got)
	inj.Unicast(src, dst, 200, "during", nil) // delivered inside the window: dies
	eng.Schedule(sim.Time(20*sim.Millisecond), func() {
		inj.Unicast(src, dst, 200, "after", nil) // node restarted: delivered
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].payload != "after" {
		t.Fatalf("got %+v, want only the post-restart frame", got)
	}
	if st := inj.FaultStats(); st.CrashDrops != 1 {
		t.Fatalf("CrashDrops = %d, want 1", st.CrashDrops)
	}
}

func TestPartitionDropsAcrossGroups(t *testing.T) {
	var got []rcvd
	// src is node 1, dst is node 0: partition separates them briefly.
	plan := &Plan{Partitions: []PartitionWindow{
		{From: 0, To: 0.005, GroupA: []int{0}, GroupB: []int{1}},
	}}
	eng, inj, src, dst := harness(1, plan, &got)
	inj.Unicast(src, dst, 200, "cut", nil)
	eng.Schedule(sim.Time(20*sim.Millisecond), func() {
		inj.Unicast(src, dst, 200, "healed", nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].payload != "healed" {
		t.Fatalf("got %+v, want only the post-heal frame", got)
	}
	if st := inj.FaultStats(); st.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", st.PartitionDrops)
	}
}

func TestDelaySpikeAddsLatency(t *testing.T) {
	baseline := func() sim.Time {
		var got []rcvd
		eng, inj, src, dst := harness(1, nil, &got)
		inj.Unicast(src, dst, 200, "x", nil)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got[0].at
	}()
	var got []rcvd
	plan := &Plan{Delays: []DelaySpike{{From: 0, To: 10, Delay: 0.005, Src: AnyNode, Dst: AnyNode}}}
	eng, inj, src, dst := harness(1, plan, &got)
	inj.Unicast(src, dst, 200, "x", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := baseline.Add(sim.DurationOf(0.005))
	if len(got) != 1 || got[0].at != want {
		t.Fatalf("delayed frame arrived at %v, want %v", got[0].at, want)
	}
	if st := inj.FaultStats(); st.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", st.Delayed)
	}
}

func TestDuplicateWindowDeliversTwice(t *testing.T) {
	var got []rcvd
	plan := &Plan{Duplicates: []DuplicateWindow{{From: 0, To: 10, Prob: 1}}}
	eng, inj, src, dst := harness(1, plan, &got)
	inj.Unicast(src, dst, 200, "twin", nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].payload != "twin" || got[1].payload != "twin" {
		t.Fatalf("got %+v, want the frame twice", got)
	}
	if st := inj.FaultStats(); st.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", st.Duplicated)
	}
	// The overlay counts the extra delivery.
	if st := inj.Stats(); st.Delivered != 2 {
		t.Fatalf("overlay Delivered = %d, want 2", st.Delivered)
	}
}

// TestInjectorDeterministic runs stochastic windows (loss + reorder +
// duplication) twice with identical seeds and requires the exact same
// delivery record, then perturbs the plan seed and requires a
// different fault stream.
func TestInjectorDeterministic(t *testing.T) {
	run := func(engSeed, planSeed int64) ([]rcvd, Stats) {
		plan := &Plan{
			Seed:       planSeed,
			Loss:       []LossBurst{{From: 0, To: 10, Prob: 0.4, Src: AnyNode, Dst: AnyNode}},
			Reorders:   []ReorderWindow{{From: 0, To: 10, Prob: 0.5, MaxDelay: 0.004}},
			Duplicates: []DuplicateWindow{{From: 0, To: 10, Prob: 0.3}},
		}
		var got []rcvd
		eng, inj, src, dst := harness(engSeed, plan, &got)
		for i := 0; i < 50; i++ {
			i := i
			eng.Schedule(sim.Time(i)*sim.Time(sim.Millisecond), func() {
				inj.Unicast(src, dst, 300, i, nil)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got, inj.FaultStats()
	}
	a, aStats := run(9, 1)
	b, bStats := run(9, 1)
	if len(a) != len(b) || aStats != bStats {
		t.Fatalf("same seeds diverged: %d/%+v vs %d/%+v", len(a), aStats, len(b), bStats)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs under identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	_, cStats := run(9, 2)
	if cStats == aStats {
		t.Fatal("plan seed change did not perturb the fault stream")
	}
}

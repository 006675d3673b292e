package cluster

import (
	"errors"
	"math"
	"testing"

	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
)

// exchange builds s and, if it builds, runs two tasks on it that each
// send the other one message and wait up to 10 ms of virtual time for
// the peer's. It fails the test unless the run completes with both
// tasks exited.
func exchange(t *testing.T, s Spec) error {
	c, err := Build(s)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		c.Spawn("peer", func(task *pvm.Task) {
			node := c.Node(task, core.Options{})
			peer := 1 - task.ID()
			task.Send(peer, 1, 64, nil)
			task.RecvTimeout(peer, 1, 10*sim.Millisecond)
			c.Exit(node)
		})
	}
	st, err := c.Run(core.Sync, 0)
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	if n := len(st.Telemetry.Tasks); n != 2 || st.Completion <= 0 {
		t.Fatalf("%+v: %d tasks, completion %v", s, n, st.Completion)
	}
	return nil
}

// FuzzBuild checks that every setting of Spec's fabric numbers either
// comes back from Build as an error or yields a cluster on which a
// two-task exchange runs to completion: no number may slip past
// validation and panic inside the engine or hang it.
func FuzzBuild(f *testing.F) {
	def, sw, h := netsim.DefaultConfig(), netsim.DefaultSwitchConfig(), netsim.DefaultHierConfig()
	type seed struct {
		fabric        uint8
		bps           float64
		delay         int64
		overhead      int
		backoff, loss float64
		rackSize      int
		uplinkBps     float64
		spine         int64
		loadBps       float64
	}
	bus := seed{0, def.BandwidthBps, int64(def.PropDelay), def.FrameOverhead, def.ContentionBackoff, 0, 0, 0, 0, 0}
	seeds := []seed{
		bus,
		{1, sw.LinkBandwidthBps, int64(sw.Latency), sw.FrameOverhead, 0, 0, 0, 0, 0, 1e9},
		{2, h.Bus.BandwidthBps, int64(h.Bus.PropDelay), h.Bus.FrameOverhead, 0, 0.1, 1, h.UplinkBandwidthBps, int64(h.SpineLatency), 1e6},
		{0, 1, int64(3600 * sim.Second), 1 << 16, 16, 1, 0, 0, 0, 1}, // every bus number at its limit
	}
	// One number past its limit each: a value that slips past
	// validation panics inside the engine or hangs it.
	for _, edit := range []func(*seed){
		func(s *seed) { s.bps = math.NaN() },
		func(s *seed) { s.bps = 1e-300 },
		func(s *seed) { s.delay = math.MaxInt64 },
		func(s *seed) { s.overhead = math.MaxInt },
		func(s *seed) { s.backoff = 1e300 },
		func(s *seed) { s.loss = math.NaN() },
		func(s *seed) { s.loadBps = 1e300 },
		func(s *seed) { s.fabric, s.delay = 1, math.MaxInt64 },
		func(s *seed) { s.fabric, s.rackSize, s.uplinkBps = 2, 0, 1e8 },
		func(s *seed) { s.fabric, s.rackSize, s.uplinkBps = 2, 4, 1e-300 },
		func(s *seed) { s.fabric, s.rackSize, s.uplinkBps, s.spine = 2, 4, 1e8, math.MaxInt64 },
		func(s *seed) { s.loadBps = 1e-300 },
	} {
		s := bus
		edit(&s)
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		f.Add(s.fabric, s.bps, s.delay, s.overhead, s.backoff, s.loss, s.rackSize, s.uplinkBps, s.spine, s.loadBps)
	}
	f.Fuzz(func(t *testing.T, fabric uint8, bps float64, delay int64, overhead int, backoff, loss float64,
		rackSize int, uplinkBps float64, spine int64, loadBps float64) {
		bus := netsim.Config{
			BandwidthBps: bps, PropDelay: sim.Duration(delay), FrameOverhead: overhead,
			ContentionBackoff: backoff, LossProb: loss,
		}
		s := Spec{Seed: 1, LoaderBps: loadBps}
		switch fabric % 3 {
		case 0:
			s.Net = &bus
		case 1:
			s.Switch = &netsim.SwitchConfig{LinkBandwidthBps: bps, Latency: sim.Duration(delay), FrameOverhead: overhead}
		case 2:
			s.Hier = &netsim.HierConfig{RackSize: rackSize, Bus: bus, UplinkBandwidthBps: uplinkBps, SpineLatency: sim.Duration(spine)}
		}
		exchange(t, s)
	})
}

// TestBuildRejectsLoaderAboveLink checks the loader's bound: at its
// link's rate it runs, above it Build refuses.
func TestBuildRejectsLoaderAboveLink(t *testing.T) {
	bus := netsim.DefaultConfig()
	if err := exchange(t, Spec{Net: &bus, LoaderBps: bus.BandwidthBps}); err != nil {
		t.Errorf("loader at the bus rate: %v", err)
	}
	if err := exchange(t, Spec{Net: &bus, LoaderBps: 1.01 * bus.BandwidthBps}); err == nil {
		t.Error("loader above the bus rate: no error")
	}
	sw := netsim.DefaultSwitchConfig()
	if err := exchange(t, Spec{Switch: &sw, LoaderBps: 2 * maxLoaderBps}); err == nil {
		t.Error("loader above 1 Gbit/s: no error")
	}
}

// TestValidateRejectsTwoFabrics checks that a Spec naming more than one
// fabric is an error, whichever two (or three) it names, while each one
// alone is valid.
func TestValidateRejectsTwoFabrics(t *testing.T) {
	bus, sw, h := netsim.DefaultConfig(), netsim.DefaultSwitchConfig(), netsim.DefaultHierConfig()
	for _, c := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"bus", Spec{Net: &bus}, true},
		{"switch", Spec{Switch: &sw}, true},
		{"hier", Spec{Hier: &h}, true},
		{"bus and switch", Spec{Net: &bus, Switch: &sw}, false},
		{"bus and hier", Spec{Net: &bus, Hier: &h}, false},
		{"switch and hier", Spec{Switch: &sw, Hier: &h}, false},
		{"all three", Spec{Net: &bus, Switch: &sw, Hier: &h}, false},
	} {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// TestRunRefusesSyncUnderRepeatsUnlessReliable checks Run's refusal of
// a Sync run under a plan that duplicates frames on the plain
// transport, and that the reliable transport lifts it whether
// Options.Reliable or a PVM override turns it on.
func TestRunRefusesSyncUnderRepeatsUnlessReliable(t *testing.T) {
	dup := &faults.Plan{Duplicates: []faults.DuplicateWindow{{From: 0, To: 1, Prob: 0.5}}}
	reliable := pvm.DefaultConfig()
	reliable.Reliable = true
	for _, c := range []struct {
		name string
		spec Spec
		mode core.Mode
		want error
	}{
		{"plain sync", Spec{Options: Options{Faults: dup}}, core.Sync, ErrSyncRepeats},
		{"plain global_read", Spec{Options: Options{Faults: dup}}, core.NonStrict, nil},
		{"reliable option", Spec{Options: Options{Faults: dup, Reliable: true}}, core.Sync, nil},
		{"reliable PVM override", Spec{PVM: &reliable, Options: Options{Faults: dup}}, core.Sync, nil},
	} {
		cl, err := Build(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := cl.Run(c.mode, 0); !errors.Is(err, c.want) {
			t.Errorf("%s: Run returned %v, want %v", c.name, err, c.want)
		}
	}
}

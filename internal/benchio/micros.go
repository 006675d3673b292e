package benchio

import (
	"testing"

	"nscc/internal/core"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
)

// NamedMicro pairs a stable snapshot key with a benchmark body.
type NamedMicro struct {
	Name string
	Fn   func(b *testing.B)
}

// StandardMicros returns the key DES hot-path microbenchmarks every
// BENCH_*.json snapshot carries: the engine's event/sleep path, the
// message layer's round trip, and one short Global_Read island-GA run.
// They mirror the equivalent go-test benchmarks (internal/sim and
// internal/pvm bench_test files) so numbers line up across harnesses.
func StandardMicros() []NamedMicro {
	return []NamedMicro{
		{Name: "sim.SleepLoop", Fn: microSleepLoop},
		{Name: "sim.QueueHold100k", Fn: microQueueHold},
		{Name: "pvm.PingPong", Fn: microPingPong},
		{Name: "pvm.Bcast1000", Fn: microBcast1000},
		{Name: "ga.IslandShortRun", Fn: microIslandRun},
	}
}

func microSleepLoop(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	eng.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// microQueueHold runs the hold model (steady-state pop-min + reinsert)
// on the engine's event queue at the pending population a
// multi-thousand-node run sustains. sim.HoldBench drives the queue
// bare, so each op is exactly one pop + one insert.
func microQueueHold(b *testing.B) {
	b.ReportAllocs()
	hb := sim.NewHoldBench(100000, 1)
	b.ResetTimer()
	hb.Ops(b.N)
}

func microPingPong(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	m := pvm.NewMachine(eng, net, pvm.DefaultConfig())
	m.Spawn("ping", func(t *pvm.Task) {
		for i := 0; i < b.N; i++ {
			t.Send(1, 1, 64, nil)
			t.Recv(1, 2)
		}
	})
	m.Spawn("pong", func(t *pvm.Task) {
		for i := 0; i < b.N; i++ {
			t.Recv(0, 1)
			t.Send(0, 2, 64, nil)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// microBcast1000 is the gossip-round shape of a scaled cluster: one
// task broadcasting to 999 peers that each ack. Its allocs/op is the
// perf-gate sentinel for the O(n²)-payload-copy regression — Bcast must
// reuse its destination scratch and share one pooled Message across the
// fan-out.
func microBcast1000(b *testing.B) {
	b.ReportAllocs()
	const p = 1000
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	m := pvm.NewMachine(eng, net, pvm.DefaultConfig())
	m.Spawn("root", func(t *pvm.Task) {
		for i := 0; i < b.N; i++ {
			t.Bcast(1, 64, nil)
			for j := 1; j < p; j++ {
				t.Recv(pvm.Any, 2)
			}
		}
	})
	for j := 1; j < p; j++ {
		m.Spawn("leaf", func(t *pvm.Task) {
			for i := 0; i < b.N; i++ {
				t.Recv(0, 1)
				t.Send(0, 2, 8, nil)
			}
		})
	}
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func microIslandRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ga.IslandConfig{
			Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
			Mode: core.NonStrict, Age: 10,
			FixedGens: 40, MinGens: 40, MaxGens: 160, Target: 0.3,
			Seed: int64(i + 1), Calib: ga.DefaultCalibration(),
		}
		if _, err := ga.RunIsland(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package pvm

import (
	"testing"

	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/trace"
)

// TestNilTracerZeroAllocs pins the tentpole's cost contract: with no
// tracer and no hooks installed, the per-message observability helpers
// must be a guarded branch — zero allocations per message.
func TestNilTracerZeroAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	m := NewMachine(eng, net, DefaultConfig())
	task := &Task{m: m, id: 0}
	msg := &Message{Src: 0, Tag: 7, Size: 128, SentAt: 0, ArrivedAt: 1000}

	allocs := testing.AllocsPerRun(1000, func() {
		task.traceSend(msg)
		task.traceArrival(msg)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer message path allocates %.1f/message, want 0", allocs)
	}
}

// TestTraceHelpersEmit checks the same helpers actually emit when a
// tracer is installed: one "send" instant and one "msg" span carrying
// the message's flight time.
func TestTraceHelpersEmit(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := trace.NewRecorder()
	eng.SetTracer(rec)
	net := netsim.New(eng, netsim.DefaultConfig())
	m := NewMachine(eng, net, DefaultConfig())
	task := &Task{m: m, id: 3}
	msg := &Message{Src: 1, Tag: 7, Size: 128, SentAt: 500, ArrivedAt: 2500}

	task.traceSend(msg)
	task.traceArrival(msg)

	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	send, span := evs[0], evs[1]
	if send.Ph != trace.PhaseInstant || send.Name != "send" || send.Tid != 3 || send.V2 != 128 {
		t.Fatalf("bad send event: %+v", send)
	}
	if span.Ph != trace.PhaseSpan || span.Name != "msg" || span.TS != 500 || span.Dur != 2000 {
		t.Fatalf("bad msg span: %+v", span)
	}
	if span.K1 != "src" || span.V1 != 1 {
		t.Fatalf("msg span should carry the source: %+v", span)
	}
}

// TestSendHookPairsWithArrivalHook exercises the symmetric hook pair on
// a real multicast: every message seen by ArrivalHook must previously
// have been seen, exactly once, by SendHook.
func TestSendHookPairsWithArrivalHook(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	m := NewMachine(eng, net, DefaultConfig())

	sent := map[*Message]int{}
	arrived := 0
	m.SendHook = func(src int, msg *Message) {
		if msg.Src != src {
			t.Errorf("SendHook src %d != msg.Src %d", src, msg.Src)
		}
		sent[msg]++
	}
	m.ArrivalHook = func(dst int, msg *Message) {
		arrived++
		if sent[msg] != 1 {
			t.Errorf("arrival of message seen %d times by SendHook, want 1", sent[msg])
		}
	}

	m.Spawn("sender", func(task *Task) {
		task.Multicast([]int{1, 2}, 5, 64, "x", nil)
	})
	for i := 0; i < 2; i++ {
		m.Spawn("receiver", func(task *Task) {
			task.Recv(Any, 5)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Fatalf("SendHook saw %d distinct messages, want 1 (multicast is one logical send)", len(sent))
	}
	if arrived != 2 {
		t.Fatalf("ArrivalHook fired %d times, want 2", arrived)
	}
}

// TestTaskStatsCounters checks the per-task byte and receive-CPU
// accounting across one send/receive exchange.
func TestTaskStatsCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := DefaultConfig()
	m := NewMachine(eng, net, cfg)

	m.Spawn("sender", func(task *Task) {
		task.Send(1, 5, 200, "payload")
	})
	m.Spawn("receiver", func(task *Task) {
		task.Recv(Any, 5)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	tel := m.TaskTelemetry()
	sender, recv := tel[0], tel[1]
	if sender.BytesSent != 200 || sender.MsgsSent != 1 {
		t.Fatalf("sender stats: %+v", sender)
	}
	if recv.BytesRecv != 200 || recv.MsgsRecv != 1 {
		t.Fatalf("receiver stats: %+v", recv)
	}
	wantCPU := cfg.RecvOverhead + 200*cfg.RecvPerByte
	if recv.RecvCPUSecs != wantCPU.Seconds() {
		t.Fatalf("receiver charged %vs of recv CPU, want %v", recv.RecvCPUSecs, wantCPU)
	}
}

package pvm

import (
	"testing"

	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/sim"
)

// newReliableMachine builds a machine with the reliable transport on,
// over a fabric wrapped by plan (nil plan = no-op injector).
func newReliableMachine(seed int64, plan *faults.Plan) (*sim.Engine, *Machine) {
	eng := sim.NewEngine(seed)
	net := faults.Wrap(netsim.New(eng, netsim.DefaultConfig()), plan)
	cfg := DefaultConfig()
	cfg.Reliable = true
	return eng, NewMachine(eng, net, cfg)
}

// TestReliableExactSequenceUnderChaos is the transport's defining
// property: for ANY fault plan, the delivered sequence per (src,dst)
// stream exactly equals the sent sequence — nothing lost, duplicated,
// or reordered — as long as fault windows are bounded so bounded
// retransmission can outlast them.
func TestReliableExactSequenceUnderChaos(t *testing.T) {
	const n = 40
	for seed := int64(0); seed < 25; seed++ {
		plan := faults.RandomPlan(seed, 2, 0.2)
		eng, m := newReliableMachine(seed, plan)
		var got []int
		m.Spawn("recv", func(task *Task) {
			for i := 0; i < n; i++ {
				got = append(got, task.Recv(1, 5).Data.(int))
			}
		})
		m.Spawn("send", func(task *Task) {
			for j := 0; j < n; j++ {
				task.Compute(sim.Millisecond)
				task.Send(0, 5, 256, j)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != n {
			t.Fatalf("seed %d: delivered %d of %d", seed, len(got), n)
		}
		for j, v := range got {
			if v != j {
				t.Fatalf("seed %d: delivered sequence %v != sent sequence", seed, got)
			}
		}
	}
}

// TestReliableMulticastExactSequence checks the per-destination
// sequence numbering on the shared-frame multicast path: every
// receiver of every multicast sees the exact sent order.
func TestReliableMulticastExactSequence(t *testing.T) {
	const n = 30
	plan := faults.RandomPlan(3, 3, 0.15)
	eng, m := newReliableMachine(3, plan)
	seqs := make([][]int, 2)
	for r := 0; r < 2; r++ {
		r := r
		m.Spawn("recv", func(task *Task) {
			for i := 0; i < n; i++ {
				seqs[r] = append(seqs[r], task.Recv(2, 9).Data.(int))
			}
		})
	}
	m.Spawn("send", func(task *Task) {
		for j := 0; j < n; j++ {
			task.Compute(sim.Millisecond)
			task.Multicast([]int{0, 1}, 9, 256, j, nil)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if len(seqs[r]) != n {
			t.Fatalf("receiver %d got %d of %d", r, len(seqs[r]), n)
		}
		for j, v := range seqs[r] {
			if v != j {
				t.Fatalf("receiver %d sequence %v != sent sequence", r, seqs[r])
			}
		}
	}
}

// TestUnreliableEmptyPlanByteIdentical is the opt-out guarantee: with
// Reliable off and a zero-fault plan wrapped around the fabric, every
// message's payload and arrival instant is byte-identical to the same
// run on the bare fabric.
func TestUnreliableEmptyPlanByteIdentical(t *testing.T) {
	type arrival struct {
		data interface{}
		at   sim.Time
	}
	run := func(wrap bool) []arrival {
		eng := sim.NewEngine(11)
		var fab netsim.Fabric = netsim.New(eng, netsim.DefaultConfig())
		if wrap {
			fab = faults.Wrap(fab, &faults.Plan{})
		}
		m := NewMachine(eng, fab, DefaultConfig())
		var got []arrival
		m.Spawn("recv", func(task *Task) {
			for i := 0; i < 15; i++ {
				msg := task.Recv(Any, Any)
				got = append(got, arrival{msg.Data, msg.ArrivedAt})
			}
		})
		m.Spawn("send", func(task *Task) {
			for j := 0; j < 15; j++ {
				task.Compute(sim.Duration(1+j%3) * sim.Millisecond)
				task.Send(0, 4, 128+j, j)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	bare, wrapped := run(false), run(true)
	for i := range bare {
		if bare[i] != wrapped[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, bare[i], wrapped[i])
		}
	}
}

// TestReliableSuppressesDuplicates runs under a prob-1 duplication
// window: the application must see each message exactly once while the
// transport counts the suppressed copies.
func TestReliableSuppressesDuplicates(t *testing.T) {
	const n = 10
	plan := &faults.Plan{Duplicates: []faults.DuplicateWindow{{From: 0, To: 100, Prob: 1}}}
	eng, m := newReliableMachine(1, plan)
	var got []int
	m.Spawn("recv", func(task *Task) {
		for i := 0; i < n; i++ {
			got = append(got, task.Recv(1, 2).Data.(int))
		}
	})
	m.Spawn("send", func(task *Task) {
		for j := 0; j < n; j++ {
			task.Compute(sim.Millisecond)
			task.Send(0, 2, 128, j)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for j, v := range got {
		if v != j {
			t.Fatalf("duplicate leaked through: %v", got)
		}
	}
	if m.TaskTelemetry()[0].DupsSuppressed == 0 {
		t.Fatal("no duplicates suppressed under a prob-1 duplication window")
	}
}

// sharedPayload counts the delivery shares a message hands on to it.
type sharedPayload struct {
	i, shares int
}

func (p *sharedPayload) Retain(n int) { p.shares += n }

// TestPlainDuplicateTakesAShare runs the plain transport under a
// duplication window of probability 1: every message arrives twice,
// and each receive must see its source, tag, size and payload intact.
// The receiver starts once all n messages are queued, so nothing takes
// from the free list while it reads. A message is recycled exactly
// once, when the dequeue after its second delivery releases the last
// share, and its payload was told of the extra share.
func TestPlainDuplicateTakesAShare(t *testing.T) {
	const n = 6
	eng := sim.NewEngine(1)
	defer eng.Close()
	plan := &faults.Plan{Duplicates: []faults.DuplicateWindow{{From: 0, To: 100, Prob: 1}}}
	m := NewMachine(eng, faults.Wrap(netsim.New(eng, netsim.DefaultConfig()), plan), DefaultConfig())
	sent := make([]*sharedPayload, n)
	m.Spawn("send", func(task *Task) {
		for i := range sent {
			sent[i] = &sharedPayload{i: i}
			task.Send(1, 7, 100+i, sent[i])
		}
	})
	m.Spawn("recv", func(task *Task) {
		task.Compute(sim.Second)
		if task.Pending() != 2*n {
			t.Errorf("%d messages queued, want %d", task.Pending(), 2*n)
			return
		}
		for i := 0; i < n; i++ {
			for c := 1; c <= 2; c++ {
				msg := task.Recv(0, Any)
				if msg.Src != 0 || msg.Tag != 7 || msg.Size != 100+i || msg.Data != sent[i] {
					t.Errorf("message %d, copy %d: src %d tag %d size %d data %v; want 0, 7, %d and %v",
						i, c, msg.Src, msg.Tag, msg.Size, msg.Data, 100+i, sent[i])
					return
				}
				// The copies' shares: this receive's, and the second
				// delivery's while it is still queued.
				if want := 3 - c; msg.refs != want {
					t.Errorf("message %d, copy %d: %d shares left, want %d", i, c, msg.refs, want)
					return
				}
				if len(m.msgFree) != i {
					t.Errorf("message %d, copy %d: %d messages recycled, want %d", i, c, len(m.msgFree), i)
					return
				}
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, p := range sent {
		if p.shares != 1 {
			t.Errorf("payload %d took %d extra shares, want 1", i, p.shares)
		}
	}
	seen := map[*Message]bool{}
	for _, msg := range m.msgFree {
		if seen[msg] {
			t.Fatal("a message was recycled twice")
		}
		seen[msg] = true
	}
}

// TestReliableRetransmitRecoversLoss drops everything for the first
// 50 ms: the sole message sent at t~0 must still arrive, via a
// retransmission after the window lifts.
func TestReliableRetransmitRecoversLoss(t *testing.T) {
	plan := &faults.Plan{Loss: []faults.LossBurst{
		{From: 0, To: 0.05, Prob: 1, Src: faults.AnyNode, Dst: faults.AnyNode},
	}}
	eng, m := newReliableMachine(1, plan)
	var got *Message
	m.Spawn("recv", func(task *Task) { got = task.Recv(1, 7) })
	m.Spawn("send", func(task *Task) { task.Send(0, 7, 256, "survivor") })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Data != "survivor" {
		t.Fatalf("message lost despite reliable transport: %+v", got)
	}
	if got.ArrivedAt < sim.Time(50*sim.Millisecond) {
		t.Fatalf("arrived at %v, inside the prob-1 loss window", got.ArrivedAt)
	}
	if m.TaskTelemetry()[1].Retransmits == 0 {
		t.Fatal("recovery happened without a recorded retransmission")
	}
}

// TestReliableAbandonsAfterMaxRetries covers the give-up path: under a
// permanent blackout the sender must stop retrying after maxRetries
// (so the engine drains rather than ticking forever) and count the
// abandonment.
func TestReliableAbandonsAfterMaxRetries(t *testing.T) {
	plan := &faults.Plan{Loss: []faults.LossBurst{
		{From: 0, To: 1e6, Prob: 1, Src: faults.AnyNode, Dst: faults.AnyNode},
	}}
	eng, m := newReliableMachine(1, plan)
	var got *Message
	m.Spawn("recv", func(task *Task) {
		// Far beyond the retransmission span (~164 virtual seconds with
		// the default 20 ms base and 12 doublings).
		got = task.RecvTimeout(1, 7, 300*sim.Second)
	})
	m.Spawn("send", func(task *Task) { task.Send(0, 7, 256, "doomed") })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("message delivered through a permanent blackout: %+v", got)
	}
	st := m.TaskTelemetry()[1]
	if st.RetxAbandoned != 1 {
		t.Fatalf("RetxAbandoned = %d, want 1", st.RetxAbandoned)
	}
	// The transport retransmits a copy at most 12 times (maxRetries).
	if st.Retransmits != 12 {
		t.Fatalf("Retransmits = %d, want maxRetries, 12", st.Retransmits)
	}
}

// TestRecvTimeout covers the primitive the bounded Global_Read builds
// on: timeout with nothing pending returns nil at the deadline; a
// message landing before the deadline is returned and charged.
func TestRecvTimeout(t *testing.T) {
	eng, m := newMachine(1)
	var missed, caught *Message
	var missedAt sim.Time
	m.Spawn("recv", func(task *Task) {
		missed = task.RecvTimeout(Any, 3, 10*sim.Millisecond)
		missedAt = task.Now()
		caught = task.RecvTimeout(Any, 3, sim.Second)
	})
	m.Spawn("send", func(task *Task) {
		task.Compute(30 * sim.Millisecond)
		task.Send(0, 3, 64, "late")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if missed != nil {
		t.Fatalf("first RecvTimeout returned %+v before any send", missed)
	}
	if missedAt != sim.Time(10*sim.Millisecond) {
		t.Fatalf("timeout returned at %v, want 10ms", missedAt)
	}
	if caught == nil || caught.Data != "late" {
		t.Fatalf("second RecvTimeout missed the message: %+v", caught)
	}
}

package pvm

import (
	"testing"
	"testing/quick"

	"nscc/internal/netsim"
	"nscc/internal/sim"
)

func newMachine(seed int64) (*sim.Engine, *Machine) {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, netsim.DefaultConfig())
	return eng, NewMachine(eng, net, DefaultConfig())
}

func TestSendRecv(t *testing.T) {
	eng, m := newMachine(1)
	var got *Message
	m.Spawn("recv", func(t *Task) { got = t.Recv(Any, 7) })
	m.Spawn("send", func(t *Task) { t.Send(0, 7, 128, "payload") })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Data != "payload" || got.Src != 1 || got.Tag != 7 {
		t.Fatalf("got %+v", got)
	}
	if got.ArrivedAt <= got.SentAt {
		t.Fatalf("message arrived (%v) not after send (%v)", got.ArrivedAt, got.SentAt)
	}
}

func TestRecvBlocksUntilArrival(t *testing.T) {
	eng, m := newMachine(1)
	var recvDone sim.Time
	m.Spawn("recv", func(t *Task) {
		t.Recv(Any, 1)
		recvDone = t.Now()
	})
	m.Spawn("send", func(t *Task) {
		t.Compute(10 * sim.Millisecond)
		t.Send(0, 1, 64, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if recvDone < sim.Time(10*sim.Millisecond) {
		t.Fatalf("receive completed at %v, before the send was issued", recvDone)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	eng, m := newMachine(1)
	var order []int
	m.Spawn("recv", func(t *Task) {
		// Wait specifically for tag 2 first even though tag 1 arrives
		// earlier, then collect tag 1 from the queue.
		order = append(order, t.Recv(Any, 2).Tag)
		order = append(order, t.Recv(Any, 1).Tag)
	})
	m.Spawn("send", func(t *Task) {
		t.Send(0, 1, 64, nil)
		t.Compute(sim.Millisecond)
		t.Send(0, 2, 64, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("recv order = %v, want [2 1]", order)
	}
}

func TestSourceSpecificRecv(t *testing.T) {
	eng, m := newMachine(1)
	var from int
	m.Spawn("recv", func(t *Task) { from = t.Recv(2, Any).Src })
	m.Spawn("s1", func(t *Task) { t.Send(0, 5, 64, nil) })
	m.Spawn("s2", func(t *Task) {
		t.Compute(5 * sim.Millisecond)
		t.Send(0, 5, 64, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if from != 2 {
		t.Fatalf("Recv(2, Any) returned message from %d", from)
	}
}

// TestNRecvAndProbe checks that NRecv never blocks: it returns nil
// before the message arrives, and afterwards takes the message a probe
// of the queue (Pending) finds waiting.
func TestNRecvAndProbe(t *testing.T) {
	eng, m := newMachine(1)
	var beforeArrival, afterArrival *Message
	var queued int
	m.Spawn("recv", func(t *Task) {
		beforeArrival = t.NRecv(Any, Any)
		t.Compute(20 * sim.Millisecond) // let the message arrive
		queued = t.Pending()
		afterArrival = t.NRecv(Any, 9)
	})
	m.Spawn("send", func(t *Task) { t.Send(0, 9, 64, 42) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if beforeArrival != nil {
		t.Fatal("NRecv returned a message before any arrived")
	}
	if queued != 1 || afterArrival == nil || afterArrival.Data != 42 {
		t.Fatalf("queued=%d msg=%+v", queued, afterArrival)
	}
}

func TestBcast(t *testing.T) {
	eng, m := newMachine(1)
	const n = 5
	got := make([]int, n)
	for i := 0; i < n-1; i++ {
		i := i
		m.Spawn("recv", func(t *Task) { got[i] = t.Recv(Any, 3).Data.(int) })
	}
	m.Spawn("root", func(t *Task) { t.Bcast(3, 64, 77) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if got[i] != 77 {
			t.Fatalf("receiver %d got %d, want 77", i, got[i])
		}
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	eng, m := newMachine(1)
	var seq []int
	m.Spawn("recv", func(t *Task) {
		for i := 0; i < 10; i++ {
			seq = append(seq, t.Recv(1, 4).Data.(int))
		}
	})
	m.Spawn("send", func(t *Task) {
		for i := 0; i < 10; i++ {
			t.Send(0, 4, 64, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range seq {
		if v != i {
			t.Fatalf("FIFO violated: %v", seq)
		}
	}
}

func TestSendChargesOverhead(t *testing.T) {
	eng, m := newMachine(1)
	var after sim.Time
	m.Spawn("sink", func(t *Task) { t.Recv(Any, Any) })
	m.Spawn("send", func(t *Task) {
		t.Send(0, 1, 64, nil)
		after = t.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if after != sim.Time(DefaultConfig().SendOverhead) {
		t.Fatalf("sender clock after send = %v, want %v", after, DefaultConfig().SendOverhead)
	}
}

func TestArrivalHook(t *testing.T) {
	eng, m := newMachine(1)
	hooks := 0
	m.ArrivalHook = func(dst int, msg *Message) {
		hooks++
		if dst != 0 || msg.Src != 1 {
			t.Errorf("hook dst=%d src=%d", dst, msg.Src)
		}
	}
	m.Spawn("recv", func(t *Task) { t.Recv(Any, Any) })
	m.Spawn("send", func(t *Task) { t.Send(0, 1, 64, nil) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if hooks != 1 {
		t.Fatalf("hook fired %d times, want 1", hooks)
	}
}

func TestCounters(t *testing.T) {
	eng, m := newMachine(1)
	var rt, st *Task
	m.Spawn("recv", func(t *Task) {
		rt = t
		t.Recv(Any, Any)
		t.Recv(Any, Any)
	})
	m.Spawn("send", func(t *Task) {
		st = t
		t.Send(0, 1, 64, nil)
		t.Send(0, 1, 64, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Sent() != 2 || rt.Received() != 2 || rt.Pending() != 0 {
		t.Fatalf("sent=%d received=%d pending=%d", st.Sent(), rt.Received(), rt.Pending())
	}
}

func TestSendUnknownTaskPanics(t *testing.T) {
	eng, m := newMachine(1)
	m.Spawn("send", func(t *Task) {
		defer func() {
			if recover() == nil {
				panic("send to unknown task did not panic")
			}
		}()
		t.Send(42, 1, 64, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: with any interleaving of computes and sends, every message
// sent is eventually received exactly once when receivers drain their
// queues, and per-(src,tag) FIFO order holds.
func TestDeliveryProperty(t *testing.T) {
	f := func(seed int64, countsRaw []uint8) bool {
		if len(countsRaw) > 4 {
			countsRaw = countsRaw[:4]
		}
		if len(countsRaw) == 0 {
			return true
		}
		eng, m := newMachine(seed)
		total := 0
		counts := make([]int, len(countsRaw))
		for i, c := range countsRaw {
			counts[i] = int(c%16) + 1
			total += counts[i]
		}
		bySrc := map[int][]int{}
		m.Spawn("recv", func(t *Task) {
			for i := 0; i < total; i++ {
				msg := t.Recv(Any, Any)
				bySrc[msg.Src] = append(bySrc[msg.Src], msg.Data.(int))
			}
		})
		for i, c := range counts {
			c := c
			m.Spawn("send", func(t *Task) {
				for j := 0; j < c; j++ {
					t.Compute(sim.Duration(t.Proc().Rng().Intn(2000)) * sim.Microsecond)
					t.Send(0, 1, 64, j)
				}
			})
			_ = i
		}
		if err := eng.Run(); err != nil {
			return false
		}
		got := 0
		for src, seq := range bySrc {
			got += len(seq)
			if len(seq) != counts[src-1] {
				return false
			}
			for j, v := range seq {
				if v != j {
					return false
				}
			}
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSendWindowBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	// Slow bus: 1 ms per kilobyte-scale frame.
	netCfg := netsim.Config{BandwidthBps: 8e6, PropDelay: 0, FrameOverhead: 0}
	net := netsim.New(eng, netCfg)
	cfg := DefaultConfig()
	cfg.SendOverhead = 0
	cfg.SendWindow = 2
	m := NewMachine(eng, net, cfg)
	var sendTimes []sim.Time
	var st *Task
	m.Spawn("sink", func(t *Task) {
		for i := 0; i < 6; i++ {
			t.Recv(Any, Any)
		}
	})
	m.Spawn("src", func(t *Task) {
		st = t
		for i := 0; i < 6; i++ {
			t.Send(0, 1, 1000, i) // 1 ms tx each
			sendTimes = append(sendTimes, t.Now())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// First two sends fit in the window instantly; from the third on,
	// each must wait for a frame to clear the wire (~1 ms apart).
	if sendTimes[1] != sendTimes[0] {
		t.Fatalf("second send blocked too early: %v", sendTimes[:2])
	}
	if sendTimes[2] == sendTimes[1] {
		t.Fatalf("third send did not block on the window: %v", sendTimes)
	}
	gap := sendTimes[3].Sub(sendTimes[2])
	if gap < 900*sim.Microsecond || gap > 1100*sim.Microsecond {
		t.Fatalf("window pacing gap %v, want ~1 ms", gap)
	}
	if st.Stalls() == 0 {
		t.Fatal("no stalls recorded")
	}
}

func TestRecvCostScalesWithSize(t *testing.T) {
	eng, m := newMachine(1)
	var smallCost, bigCost sim.Duration
	m.Spawn("recv", func(t *Task) {
		for t.Pending() != 2 {
			t.Compute(sim.Millisecond)
		}
		start := t.Now()
		t.Recv(Any, 1) // small
		smallCost = t.Now().Sub(start)
		start = t.Now()
		t.Recv(Any, 2) // big
		bigCost = t.Now().Sub(start)
	})
	m.Spawn("send", func(t *Task) {
		t.Send(0, 1, 10, nil)
		t.Send(0, 2, 10000, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if bigCost <= smallCost {
		t.Fatalf("large message receive (%v) not costlier than small (%v)", bigCost, smallCost)
	}
}

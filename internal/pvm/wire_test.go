package pvm

import (
	"testing"

	"nscc/internal/netsim"
	"nscc/internal/sim"
)

// wireMachine is a bus machine with no send overhead, so a send's only
// engine events are its frame's, and n tasks that each receive want
// messages.
func wireMachine(window, n, want int) (*sim.Engine, *Machine) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.SendOverhead, cfg.SendWindow = 0, window
	m := NewMachine(eng, netsim.New(eng, netsim.DefaultConfig()), cfg)
	for i := 0; i < n; i++ {
		m.Spawn("recv", func(t *Task) {
			for j := 0; j < want; j++ {
				t.Recv(Any, Any)
			}
		})
	}
	return eng, m
}

// TestUnwindowedSendQueuesOneEventPerFrame checks that without a send
// window and without an onWire callback, Send, Multicast and Bcast each
// leave exactly one engine event, the frame's delivery, and no event
// for the frame clearing the wire.
func TestUnwindowedSendQueuesOneEventPerFrame(t *testing.T) {
	eng, m := wireMachine(0, 3, 3)
	m.Spawn("send", func(task *Task) {
		for _, s := range []struct {
			name string
			send func()
		}{
			{"Send", func() { task.Send(0, 1, 64, nil) }},
			{"Multicast", func() { task.Multicast([]int{0, 1, 2}, 1, 64, nil, nil) }},
			{"Bcast", func() { task.Bcast(1, 64, nil) }},
		} {
			before := eng.Pending()
			s.send()
			if got := eng.Pending() - before; got != 1 {
				t.Errorf("%s queued %d engine events, want 1", s.name, got)
			}
		}
		task.Multicast([]int{1, 2}, 1, 64, nil, nil) // the third message of tasks 1 and 2
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOnWireFiresWhenFrameClearsWire checks that a caller's onWire
// fires when the frame leaves the wire, before its delivery, with and
// without a send window, and that under a window of one the next send
// blocks until then.
func TestOnWireFiresWhenFrameClearsWire(t *testing.T) {
	bus := netsim.DefaultConfig()
	tx := sim.DurationOf(float64(64+bus.FrameOverhead) * 8 / bus.BandwidthBps)
	for _, window := range []int{0, 1} {
		eng, m := wireMachine(window, 1, 2)
		var wired, arrived, second sim.Time
		m.ArrivalHook = func(int, *Message) {
			if arrived == 0 {
				arrived = eng.Now()
			}
		}
		m.Spawn("send", func(task *Task) {
			task.Multicast([]int{0}, 1, 64, nil, func() { wired = eng.Now() })
			task.Send(0, 1, 64, nil)
			second = task.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if want := sim.Time(0).Add(tx); wired != want || arrived != want.Add(bus.PropDelay) {
			t.Errorf("window %d: onWire fired at %v and the frame arrived at %v; want %v and %v",
				window, wired, arrived, want, want.Add(bus.PropDelay))
		}
		if want := map[int]sim.Time{0: 0, 1: wired}[window]; second != want {
			t.Errorf("window %d: the second send returned at %v, want %v", window, second, want)
		}
	}
}

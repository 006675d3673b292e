package pvm

import (
	"fmt"
	"slices"
	"testing"

	"nscc/internal/netsim"
	"nscc/internal/sim"
)

// sendID names one send of TestSendScratchInterleaved: its sender and
// its index in the sender's script.
type sendID struct{ src, k int }

// TestSendScratchInterleaved runs tasks whose Bcast, Multicast and Send
// calls interleave: starts a tenth of a send overhead apart, and a send
// window of one, so every sender's overhead sleep and window stall
// overlaps other tasks' sends. The machine's send scratch must still
// give every message exactly the destination set its call named.
func TestSendScratchInterleaved(t *testing.T) {
	const p, sends = 7, 9
	fabrics := []struct {
		name string
		make func(*sim.Engine) netsim.Fabric
	}{
		{"bus", func(eng *sim.Engine) netsim.Fabric { return netsim.New(eng, netsim.DefaultConfig()) }},
		{"hier", func(eng *sim.Engine) netsim.Fabric {
			cfg := netsim.DefaultHierConfig()
			cfg.RackSize = 2
			return netsim.NewHier(eng, cfg)
		}},
	}
	// dests is the destination set of sender i's k-th send; Bcast is
	// every other task.
	dests := func(i, k int) []int {
		var d []int
		for j := 0; j < p; j++ {
			switch {
			case j == i:
			case (i+k)%3 == 0: // Bcast
				d = append(d, j)
			case (i+k)%3 == 1 && (j+k)%2 == 0: // Multicast, descending below
				d = append(d, j)
			case (i+k)%3 == 2 && j == (i+k%(p-1)+1)%p: // Send
				d = append(d, j)
			}
		}
		return d
	}
	want := map[sendID][]int{}
	expect := make([]int, p)
	for i := 0; i < p; i++ {
		for k := 0; k < sends; k++ {
			d := dests(i, k)
			want[sendID{i, k}] = d
			for _, j := range d {
				expect[j]++
			}
		}
	}
	for _, fabric := range fabrics {
		for _, reliable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reliable=%v", fabric.name, reliable), func(t *testing.T) {
				eng := sim.NewEngine(1)
				defer eng.Close()
				cfg := DefaultConfig()
				cfg.SendWindow = 1
				cfg.Reliable = reliable
				m := NewMachine(eng, fabric.make(eng), cfg)
				got := map[sendID][]int{}
				stalls := int64(0)
				for i := 0; i < p; i++ {
					m.Spawn("t", func(task *Task) {
						me := task.ID()
						task.Compute(sim.Duration(me) * cfg.SendOverhead / 10)
						for k := 0; k < sends; k++ {
							id := sendID{me, k}
							switch d := dests(me, k); (me + k) % 3 {
							case 0:
								task.Bcast(1, 1000, id)
							case 1:
								slices.Reverse(d)
								task.Multicast(d, 1, 1000, id, nil)
							default:
								task.Send(d[0], 1, 1000, id)
							}
						}
						for n := 0; n < expect[me]; n++ {
							id := task.Recv(Any, 1).Data.(sendID)
							got[id] = append(got[id], me)
						}
						stalls += task.Stalls()
					})
				}
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				if stalls == 0 {
					t.Fatal("no send stalled on its window; the sends did not interleave")
				}
				for id, d := range want {
					if slices.Sort(got[id]); !slices.Equal(got[id], d) {
						t.Errorf("send %d of task %d reached %v, want %v", id.k, id.src, got[id], d)
					}
				}
			})
		}
	}
}

// TestBcastSkipsTaskSpawnedDuringSleep checks that a Bcast's
// destinations are the tasks that existed when it was called: a task
// spawned while the sender sleeps off its send overhead gets nothing,
// and the sender's next Bcast reaches it.
func TestBcastSkipsTaskSpawnedDuringSleep(t *testing.T) {
	eng, m := newMachine(1)
	defer eng.Close()
	var early, late []int
	m.Spawn("root", func(t *Task) {
		t.Bcast(1, 64, 0)
		t.Compute(10 * sim.Millisecond)
		t.Bcast(1, 64, 1)
	})
	m.Spawn("early", func(t *Task) {
		for i := 0; i < 2; i++ {
			early = append(early, t.Recv(0, 1).Data.(int))
		}
	})
	eng.Schedule(sim.Time(m.cfg.SendOverhead/2), func() {
		m.Spawn("late", func(t *Task) {
			for msg := t.RecvTimeout(0, 1, 50*sim.Millisecond); msg != nil; msg = t.RecvTimeout(0, 1, 50*sim.Millisecond) {
				late = append(late, msg.Data.(int))
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(early, []int{0, 1}) || !slices.Equal(late, []int{1}) {
		t.Fatalf("early task got %v, late task %v; want [0 1] and [1]", early, late)
	}
}

// TestBcastAllocsZeroAt1000Tasks checks that a warmed broadcast costs
// no allocation at 1000 tasks on the rack/spine fabric, even from a
// task that has never sent: the destination and node lists
// are the machine's, not the task's. Task k broadcasts when task k-1's
// broadcast reaches it, and each measured run of the engine ends right
// after the next broadcast.
func TestBcastAllocsZeroAt1000Tasks(t *testing.T) {
	const p = 1000
	eng := sim.NewEngine(1)
	defer eng.Close()
	m := NewMachine(eng, netsim.NewHier(eng, netsim.DefaultHierConfig()), DefaultConfig())
	bcasts := 0
	for i := 0; i < p; i++ {
		m.Spawn("t", func(t *Task) {
			if t.ID() == 0 {
				t.Bcast(1, 64, nil)
				bcasts++
				eng.Stop()
			}
			for {
				if t.Recv(Any, 1).Src == t.ID()-1 {
					t.Bcast(1, 64, nil)
					bcasts++
					eng.Stop()
				}
			}
		})
	}
	next := func() {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		next()
	}
	if allocs := testing.AllocsPerRun(20, next); allocs != 0 {
		t.Fatalf("a warmed Bcast at %d tasks allocates %.0f times, want 0", p, allocs)
	}
	if bcasts != 31 {
		t.Fatalf("%d broadcasts ran, want 31 (one per engine run)", bcasts)
	}
}

package sim

import (
	"fmt"
	"testing"
)

// BenchmarkSleepLoop measures the engine's hottest path: one process
// sleeping repeatedly, i.e. one event schedule + heap pop + process
// step per iteration. With the event free list and the closure-free
// proc resumption this runs allocation-free in steady state.
func BenchmarkSleepLoop(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	eng.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFire measures bare event dispatch (no process
// machinery): schedule-then-fire round trips through the heap and the
// free list.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			n++
			eng.After(Microsecond, tick)
		}
	}
	eng.After(0, tick)
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWaitWake measures the blocking primitive: two processes
// handing a token back and forth over two wait lists (one block + one
// wake per iteration side).
func BenchmarkWaitWake(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	var aWL, bWL WaitList
	turnA := true
	eng.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for !turnA {
				aWL.Wait(p)
			}
			turnA = false
			bWL.WakeAll()
		}
	})
	eng.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for turnA {
				bWL.Wait(p)
			}
			turnA = true
			aWL.WakeAll()
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHandoffRing passes a token round a ring of n processes, each
// parked on its own WaitList, so every iteration is one handoff from
// the process that wakes its successor to that successor: no process
// ever resumes its own step.
func BenchmarkHandoffRing(b *testing.B) {
	for _, n := range []int{2, 16, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			eng := NewEngine(1)
			wls := make([]WaitList, n)
			holder, passes := 0, 0
			for i := 0; i < n; i++ {
				next := &wls[(i+1)%n]
				eng.Spawn("ring", func(p *Proc) {
					for passes < b.N {
						if holder != i {
							wls[i].Wait(p)
							continue
						}
						passes++
						holder = (i + 1) % n
						next.WakeAll()
					}
					next.WakeAll() // end the ring: each process wakes the next
				})
			}
			b.ResetTimer()
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEventQueueHold runs the hold model (steady-state pop-min +
// reinsert at a later time) on the event queue at fixed pending
// populations. The 10⁵ case is the sim.QueueHold100k micro.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, pending := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			hb := NewHoldBench(pending, 1)
			b.ResetTimer()
			hb.Ops(b.N)
		})
	}
}

// BenchmarkDistinctSleepers runs n processes that each sleep their own
// distinct duration in 1.000–1.999 µs, over and over; one op is one
// sleep, that is one event popped and one process resumed. The n
// pending wakes span a microsecond and overtake each other all the
// time, so nearly every insert lands deep inside the queue's order.
func BenchmarkDistinctSleepers(b *testing.B) {
	for _, n := range []int{16, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			eng := NewEngine(1)
			steps := 0
			for i := 0; i < n; i++ {
				d := Microsecond + Duration(i)*Microsecond/Duration(n)
				eng.Spawn("sleeper", func(p *Proc) {
					for steps < b.N {
						steps++
						p.Sleep(d)
					}
				})
			}
			b.ResetTimer()
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

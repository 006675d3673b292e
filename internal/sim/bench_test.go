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

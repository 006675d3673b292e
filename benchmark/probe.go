package main

import (
	"math"
	"time"
)

// The reference box is a shared VM whose neighbours slow every
// instruction down, by up to 30% for minutes at a time: two sets of ten
// runs taken 11 minutes apart differed by 27% in graph_20k's median
// cells/s. So a sweep child samples its own thread's speed while the
// sweep runs, with a fixed probe kernel, and the parent reports the
// child's times at the reference speed; the unscaled times are printed
// and recorded too.
//
// The probe must see the host, not the code under test. Each sample
// therefore makes a short untimed call first, which pulls the kernel's
// few hundred bytes of code and data back into L1 after whatever the
// sweep touched, and then times a call that runs from L1, so the
// sweep's memory footprint does not reach the timed call. README.md
// gives the check.

const (
	// probeNominal is the median of probeKernel's timed calls in a sweep
	// child on the reference box, over a few minutes.
	probeNominal = 0.46e-3 // s
	// probeEvery is the sampling period: a sample takes about 2.5% of the
	// sweep's thread, which the parent subtracts from the child's times.
	probeEvery = 20 * time.Millisecond
	// probeRounds is the timed call's length; probeWarm the untimed one's.
	probeRounds, probeWarm = 200, 8
)

// probeKernel is a fixed slice of the sweeps' kind of host work: random
// draws, float arithmetic, a small sort and map lookups. It allocates
// nothing, and its data is one 32-float array and a 64-entry map.
func probeKernel(m map[int]int, rounds int) uint64 {
	var (
		x   uint64 = 88172645463325252
		acc float64
		buf [32]float64
	)
	for round := 0; round < rounds; round++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = float64(x>>11) / (1 << 53)
			acc += math.Sqrt(buf[i]) * math.Cos(buf[i])
		}
		for i := 1; i < len(buf); i++ { // insertion sort
			for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		for i := 0; i < 64; i++ {
			acc += float64(m[int(x>>uint(i%48))&63])
		}
	}
	return uint64(acc)
}

// speedProbe samples probeKernel every probeEvery on a goroutine of its
// own. With GOMAXPROCS=1 that goroutine shares the sweep's only thread,
// so it sees the speed the sweep sees.
type speedProbe struct {
	stop, done chan struct{}
	busy       time.Duration // total time the samples took from the sweep
	times      []float64     // each sample's timed call, s
	sink       uint64
}

func startProbe() *speedProbe {
	m := make(map[int]int, 64)
	for i := 0; i < 64; i++ {
		m[i] = i * 3
	}
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run(m)
	return p
}

func (p *speedProbe) run(m map[int]int) {
	defer close(p.done)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			warm := time.Now()
			p.sink += probeKernel(m, probeWarm)
			start := time.Now()
			p.sink += probeKernel(m, probeRounds)
			end := time.Now()
			p.busy += end.Sub(warm)
			p.times = append(p.times, end.Sub(start).Seconds())
		}
	}
}

// finish stops the probe, waits for its goroutine to exit, and returns
// the time it took from the sweep and the sweep's speed relative to the
// reference: the samples' median speed. A sample the GC or the
// scheduler interrupted reads slow, so the median, unlike a mean, holds
// while fewer than half are interrupted, however much more the code
// under test allocates. Without a sample, the speed is 1.
func (p *speedProbe) finish() (busy time.Duration, speed float64) {
	close(p.stop)
	<-p.done
	if len(p.times) == 0 {
		return p.busy, 1
	}
	return p.busy, probeNominal / median(p.times)
}

package ga

import (
	"fmt"
	"testing"

	"nscc/internal/ga/functions"
	"nscc/internal/xrand"
)

// BenchmarkMutate is one child's per-bit mutation on F4's 240-bit
// chromosome at DeJong's M: 240 draws compared against the threshold.
func BenchmarkMutate(b *testing.B) {
	d := newDeme(functions.F4, DeJongParams(), xrand.New(1))
	ind := &d.pop[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.mutate(ind)
	}
}

// benchSink keeps the benchmarked draws live.
var benchSink int

// BenchmarkRoulette is one selection draw from an F1 deme's scaled
// weights after ten evaluated generations, at the island deme's N = 50
// and the 16-island serial baseline's 800: through the guide table
// NextGeneration spins, and through the binary search it replaced,
// which remains its fallback and test oracle.
func BenchmarkRoulette(b *testing.B) {
	for _, n := range []int{50, 800} {
		par := DeJongParams()
		par.N = n
		d := newDeme(functions.F1, par, xrand.New(1))
		for g := 0; g < 10; g++ {
			d.EvaluateAll()
			d.NextGeneration()
		}
		d.EvaluateAll()
		cum := d.scaledCum()
		w := newRoulette(n)
		w.build(cum)
		if w.scale == 0 {
			b.Fatalf("N=%d: the guide table is unused (total %v)", n, w.total)
		}
		b.Run(fmt.Sprintf("N=%d/guide", n), func(b *testing.B) {
			rng := xrand.New(2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += w.spin(rng)
			}
		})
		b.Run(fmt.Sprintf("N=%d/search", n), func(b *testing.B) {
			rng := xrand.New(2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += rouletteIndex(cum, w.total, rng)
			}
		})
	}
}

// BenchmarkNextGeneration is one generation's selection, crossover and
// mutation of an N = 50 deme on F1 (30 bits) and F4 (240 bits). The
// deme is evaluated once before timing; later generations select on the
// fitness their members inherited, which costs what a fresh one does.
func BenchmarkNextGeneration(b *testing.B) {
	for _, fn := range []*functions.Function{functions.F1, functions.F4} {
		b.Run(fmt.Sprintf("F%d", fn.No), func(b *testing.B) {
			d := newDeme(fn, DeJongParams(), xrand.New(1))
			d.EvaluateAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.NextGeneration()
			}
		})
	}
}

// BenchmarkPoolTopK is one migration round's top-k selection on a
// 16-island broadcast: 15 sources' blocks of 25 migrants (375 in the
// pool), keeping the best 25.
func BenchmarkPoolTopK(b *testing.B) {
	const sources, k = 15, 25
	rng := xrand.New(1)
	blocks := make([][]Individual, sources)
	for s := range blocks {
		blocks[s] = make([]Individual, k)
		for i := range blocks[s] {
			// Blocks arrive fittest first, each from a deme converging
			// on the same optimum, so the pool holds runs and near-ties.
			blocks[s][i].Fit = float64(i)*0.01 + rng.Float64()*0.001
		}
	}
	var ps poolSorter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.bestK(blocks, k)
	}
}

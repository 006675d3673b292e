package ga

import (
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

// BenchmarkPoolTopK is one migration round's top-k selection on a
// 16-island broadcast: 15 sources' blocks of 25 migrants (375 in the
// pool), keeping the best 25.
func BenchmarkPoolTopK(b *testing.B) {
	const sources, k = 15, 25
	rng := xrand.New(1)
	pool := make([]Individual, sources*k)
	for i := range pool {
		// Blocks arrive fittest first, each from a deme converging on
		// the same optimum, so the pool holds runs and near-ties.
		pool[i].Fit = float64(i%k)*0.01 + rng.Float64()*0.001
	}
	var ps poolSorter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.bestK(pool, k)
	}
}

package graph

import (
	"testing"

	"nscc/internal/core"
)

// BenchmarkStep is one full-range superstep of a 20k-vertex, 100k-edge
// random graph per op: operands over every vertex, then step. The view
// starts eight supersteps in, so SSSP folds mostly finite distances.
func BenchmarkStep(b *testing.B) {
	g, err := ParseTopoSpec("random:n=20000,m=80000,seed=1")
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range Algos {
		b.Run(algo.String(), func(b *testing.B) {
			view := initValues(algo, g.N)
			ops := make([]float64, g.N)
			out := make([]float64, g.N)
			for i := 0; i < 8; i++ {
				operands(g, algo, 0, view, ops)
				step(g, algo, ops, view, out, 0, g.N)
				view, out = out, view
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				operands(g, algo, 0, view, ops)
				step(g, algo, ops, view, out, 0, g.N)
			}
		})
	}
}

// BenchmarkRunClusteredSSSP is one 16-partition Global_Read(10) SSSP run
// on a 16-cluster, 20k-vertex graph per op. The distance wave crosses
// one cluster at a time, so most partition-supersteps find their inputs
// unchanged and skip the kernel.
func BenchmarkRunClusteredSSSP(b *testing.B) {
	g, err := ParseTopoSpec("clustered:n=20000,k=16,seed=1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		G: g, Algo: SSSP, P: 16,
		Mode: core.NonStrict, Age: 10,
		MaxSupersteps: 4000,
		Seed:          1,
		Calib:         DefaultCalibration(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("run did not converge")
		}
	}
}

package graph

import (
	"strings"
	"testing"

	"nscc/internal/core"
)

// BenchmarkStep is one superstep of all 16 partition kernels of a
// 20k-vertex graph per op, the shape of the graph_20k workload: the
// random graph (100k edges, most sources ghosts) and the clustered one
// (one cluster a partition), under both algorithms. Each kernel's
// operands and own block hold the state eight supersteps in, so SSSP
// folds mostly finite distances, and each op restores the own blocks
// first, since the kernel writes them in place.
func BenchmarkStep(b *testing.B) {
	for _, spec := range []string{"random:n=20000,m=80000,seed=1", "clustered:n=20000,k=16,seed=1"} {
		g, err := ParseTopoSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		bounds := partBounds(g.N, 16)
		for _, algo := range Algos {
			b.Run(spec[:strings.IndexByte(spec, ':')]+"/"+algo.String(), func(b *testing.B) {
				view := initValues(algo, g.N)
				seq := newKernel(g, algo, 0, g.N, nil)
				for i := 0; i < 8; i++ {
					operands(g, algo, 0, view, seq.ops)
					seq.superstep(view)
				}
				operands(g, algo, 0, view, seq.ops)
				var sc kernelScratch
				kerns := make([]*kernel, len(bounds)-1)
				own := make([]float64, g.N)
				for p := range kerns {
					kerns[p] = newKernel(g, algo, bounds[p], bounds[p+1], &sc)
					kerns[p].load(seq.ops)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(own, view)
					for p, k := range kerns {
						k.superstep(own[bounds[p]:bounds[p+1]])
					}
				}
			})
		}
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

package functions

import (
	"fmt"
	"math/rand"
	"testing"

	"nscc/internal/xrand"
)

var evalSink float64

// BenchmarkEvalBits is one objective evaluation from a chromosome, the
// call the GA's EvaluateAll makes, per function: plain binary decoding
// of 64 fixed random chromosomes in turn. F4 draws its noise.
func BenchmarkEvalBits(b *testing.B) {
	for _, f := range All() {
		b.Run(fmt.Sprintf("F%d", f.No), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			chroms := make([]Chrom, 64)
			for c := range chroms {
				for i := 0; i < f.TotalBits(); i++ {
					if rng.Intn(2) == 1 {
						chroms[c].Flip(i)
					}
				}
			}
			scratch, noise := make([]float64, f.Vars), xrand.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evalSink = f.EvalBitsInto(scratch, &chroms[i%len(chroms)], false, noise)
			}
		})
	}
}

package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nscc/internal/core"
)

// TestSSSPMonotone is the SSSP safety property: under every coherence
// discipline, a vertex's distance never increases across supersteps.
// Min-relaxation can only tighten, so any increase means a partition
// overwrote a fresh value with a stale one — the bug class non-strict
// delivery could introduce.
func TestSSSPMonotone(t *testing.T) {
	g, err := ParseTopoSpec("clustered:n=40,k=4,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range oracleVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			prev := make(map[int][]float64)
			violations := 0
			_, err := Run(Config{
				G: g, Algo: SSSP, P: 4,
				Mode: v.mode, Age: v.age,
				MaxSupersteps: 4000,
				Seed:          7,
				Calib:         DefaultCalibration(),
				OnSuperstep: func(part int, iter int64, owned []float64) {
					if old, ok := prev[part]; ok {
						for i := range owned {
							if owned[i] > old[i] {
								violations++
							}
						}
					}
					prev[part] = append(prev[part][:0], owned...)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if violations > 0 {
				t.Errorf("%d distance increases observed", violations)
			}
		})
	}
}

// TestPageRankMassConserved checks the PageRank invariant: with every
// vertex's out-degree >= 1, one Jacobi step over a coherent view
// conserves total rank mass. The sequential kernel must hold it exactly
// (to float tolerance) at every superstep; a sync-mode partitioned run
// must hold it globally per superstep, since the barrier makes every
// partition's superstep i a function of the same global state.
func TestPageRankMassConserved(t *testing.T) {
	g, err := ParseTopoSpec("random:n=40,m=80,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9

	// Sequential: iterate the shared kernel directly.
	cur := initValues(PageRank, g.N)
	k := newKernel(g, PageRank, 0, g.N, nil)
	for it := 0; it < 50; it++ {
		operands(g, PageRank, 0, cur, k.ops)
		k.superstep(cur)
		sum := 0.0
		for _, r := range cur {
			sum += r
		}
		if math.Abs(sum-1) > tol {
			t.Fatalf("sequential superstep %d: total mass %v, want 1", it, sum)
		}
	}

	// Sync-mode partitioned run: assemble each superstep's global vector
	// from the per-partition OnSuperstep snapshots and sum it.
	sums := make(map[int64]float64)
	parts := make(map[int64]int)
	res, err := Run(Config{
		G: g, Algo: PageRank, P: 4,
		Mode:          core.Sync,
		MaxSupersteps: 4000,
		Seed:          11,
		Calib:         DefaultCalibration(),
		OnSuperstep: func(part int, iter int64, owned []float64) {
			for _, r := range owned {
				sums[iter] += r
			}
			parts[iter]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("sync run did not converge")
	}
	checked := 0
	for iter, n := range parts {
		if n != 4 {
			continue // partial superstep at the exit edge
		}
		if math.Abs(sums[iter]-1) > tol {
			t.Errorf("superstep %d: total mass %v, want 1", iter, sums[iter])
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("only %d complete supersteps observed", checked)
	}
}

// TestMergeOrderInvariant proves the contribution merge is commutative
// at the float level: gathering a superstep's ghosts from its source
// blocks in any delivery order yields a byte-identical kernel output,
// because each block fills a disjoint run of ghost slots and the kernel
// folds in fixed CSR order. This is why non-strict delivery reordering
// cannot perturb a superstep given the same operand values.
func TestMergeOrderInvariant(t *testing.T) {
	g, err := ParseTopoSpec("random:n=32,m=64,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	bounds := partBounds(g.N, p)
	rng := rand.New(rand.NewSource(13))
	// A mid-convergence state: perturbed ranks and partially-relaxed
	// distances exercise non-trivial folds.
	state := make([]float64, g.N)
	for i := range state {
		state[i] = rng.Float64()
	}

	for _, algo := range Algos {
		lo, hi := bounds[1], bounds[2] // partition 1's owned range
		k := newKernel(g, algo, lo, hi, new(kernelScratch))
		out := make([]float64, hi-lo)
		// The blocks the sources publish: state in operand form.
		blocks := make([]float64, g.N)
		operands(g, algo, 0, state, blocks)
		// Every order must give the reference kernel's bits.
		ref := make([]float64, hi-lo)
		refStep(g, algo, state, ref, lo, hi)
		want := make([]uint64, len(ref))
		for i, x := range ref {
			want[i] = math.Float64bits(x)
		}
		for perm := 0; perm < 8; perm++ {
			// NaN ghost slots make a gather the order skips show.
			for i := range k.ops {
				k.ops[i] = math.NaN()
			}
			copy(k.ops, blocks[lo:hi])
			order := rng.Perm(p)
			for _, src := range order {
				gatherBlock(k, bounds[src], blocks[bounds[src]:bounds[src+1]])
			}
			copy(out, state[lo:hi])
			k.superstep(out)
			for i, x := range out {
				if math.Float64bits(x) != want[i] {
					t.Fatalf("%s: permutation %d (%v) changed out[%d]: %x vs %x",
						algo, perm, order, i, math.Float64bits(x), want[i])
				}
			}
		}
	}
}

// TestDeterminism pins the byte-level reproducibility contract: two
// runs with the same Config produce bit-identical state vectors and
// identical virtual metrics, for every discipline.
func TestDeterminism(t *testing.T) {
	g, err := ParseTopoSpec("random:n=40,m=80,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []variant{{"sync", core.Sync, 0}, {"async", core.Async, 0}, {"gr10", core.NonStrict, 10}} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			run := func() Result {
				res, err := Run(Config{
					G: g, Algo: PageRank, P: 4,
					Mode: v.mode, Age: v.age,
					MaxSupersteps: 4000,
					Seed:          21,
					Calib:         DefaultCalibration(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Completion != b.Completion || a.Messages != b.Messages || a.NetBytes != b.NetBytes {
				t.Errorf("metrics differ: %v/%d/%d vs %v/%d/%d",
					a.Completion, a.Messages, a.NetBytes, b.Completion, b.Messages, b.NetBytes)
			}
			for i := range a.Values {
				if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
					t.Fatalf("values[%d] differ: %v vs %v", i, a.Values[i], b.Values[i])
				}
			}
			if fmt.Sprint(a.Supersteps) != fmt.Sprint(b.Supersteps) {
				t.Errorf("supersteps differ: %v vs %v", a.Supersteps, b.Supersteps)
			}
		})
	}
}

package bayes

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"nscc/internal/rollback"
	"nscc/internal/xrand"
)

// The samplers' reference: the draw as it was written before plans
// compiled it. comboIndex folds the parents' states in Horner form,
// drawFrom scans a probability row with a running sum, and hashUniform
// runs all three hash rounds per draw. FuzzSamplerMatchesReference
// holds the compiled draws to them bit for bit.

// comboIndex computes the CPT row selected by the parents' states in
// values (which must hold states for all indices < i).
func (l *lut) comboIndex(i int, values []int) int {
	combo := 0
	for _, p := range l.parents[i] {
		combo = combo*l.states[p] + values[p]
	}
	return combo
}

// drawFrom samples a state from dist using u in [0,1).
func drawFrom(dist []float64, u float64) int {
	acc := 0.0
	for s, p := range dist {
		acc += p
		if u < acc {
			return s
		}
	}
	return len(dist) - 1
}

// hashUniform maps (seed, node, iter, combo) to a uniform in [0,1) with
// a SplitMix64-style mix.
func hashUniform(seed, node, iter, combo int64) float64 {
	z := uint64(seed)
	for _, v := range [...]uint64{uint64(node), uint64(iter), uint64(combo)} {
		z += (v + 0x9E3779B97F4A7C15)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return float64(z>>11) / float64(uint64(1)<<53)
}

// refDrawAt is the parallel sampler's replayable draw of node i in
// iteration iter given the parent states in values, at seed.
func (l *lut) refDrawAt(i int, iter int64, values []int, seed int64) int {
	combo := l.comboIndex(i, values)
	return drawFrom(l.dist(i, combo), hashUniform(seed, int64(i), iter, int64(combo)))
}

// drawAt is the same draw from the compiled pieces a plan's steps use.
func (l *lut) drawAt(i int, iter int64, values []int, seed int64) int {
	combo := l.combo(i, values)
	return drawRow(l.cum[i], l.states[i], combo, uniformAt(nodeKey(seed, i), iter, combo))
}

// refFillSample is the parallel sampler's fillSample as it was written
// before plans compiled it: partition p's nodes in topological order,
// each parent's state read from out for a local parent and consumed
// from store for a remote one.
func refFillSample(l *lut, parts []int, p int, seed, t int64, store *rollback.Store, defaults []int, out []int8) {
	pos := make([]int, len(parts))
	values := make([]int, len(parts))
	k := 0
	for u, q := range parts {
		if q != p {
			continue
		}
		pos[u] = k
		k++
		for _, pa := range l.parents[u] {
			if parts[pa] == p {
				values[pa] = int(out[pos[pa]])
			} else {
				values[pa], _ = store.Consume(pa, t, defaults[pa])
			}
		}
		out[pos[u]] = int8(l.refDrawAt(u, t, values, seed))
	}
}

// fuzzNetwork builds a random network of 1-8 nodes with 2-4 states
// each and 0-4 parents, listed in random order. Some CPT entries are
// zero, so some rows sum to less than 1 and a draw can run past every
// running sum.
func fuzzNetwork(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(8)
	bn := &Network{Name: "fuzz", Nodes: make([]Node, n)}
	for i := range bn.Nodes {
		np := rng.Intn(5)
		if np > i {
			np = i
		}
		parents := rng.Perm(i)[:np]
		combos := 1
		for _, p := range parents {
			combos *= bn.Nodes[p].States
		}
		states := 2 + rng.Intn(3)
		cpt := randomCPT(combos, states, rng)
		for _, row := range cpt {
			for s := range row {
				if rng.Intn(6) == 0 {
					row[s] = 0
				}
			}
		}
		bn.Nodes[i] = Node{States: states, Parents: parents, CPT: cpt}
	}
	return bn
}

// FuzzSamplerMatchesReference holds the compiled draws to the
// reference on random networks, seeds, iterations and parent states.
// For each node the serial draw must equal drawFrom on the node's row
// for uniforms from rng.Float64() and for every running-sum bound and
// its neighbours, and the replayable draw must equal the reference's
// hashed one. For a random two-way partition, fillSample must fill the
// row the reference fills, consuming the same remote parents (some
// received, some gambled) in the same order. A whole serial sample,
// forward and likelihood-weighted, must match the reference's drawn
// from an equally seeded rng.
func FuzzSamplerMatchesReference(f *testing.F) {
	f.Add(int64(1), int64(2000), int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(7), int64(-3), int64(1<<40), []byte{3, 3, 1, 0, 2, 2, 1})
	f.Add(int64(1004), int64(math.MinInt64), int64(-1), []byte{})
	f.Add(int64(42), int64(9), int64(math.MaxInt64), []byte{255, 128, 7, 64, 33})
	f.Fuzz(func(t *testing.T, netSeed, seed, iter int64, data []byte) {
		bn := fuzzNetwork(netSeed)
		n := bn.N()
		l := newLUT(bn, Query{})
		at := func(k int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[k%len(data)]
		}
		values := make([]int, n)
		for i := range values {
			values[i] = int(at(i)) % bn.Nodes[i].States
		}

		rng := xrand.New(seed)
		for i := 0; i < n; i++ {
			want := l.comboIndex(i, values)
			if got := l.combo(i, values); got != want {
				t.Fatalf("node %d: combo %d, comboIndex %d", i, got, want)
			}
			row := l.dist(i, want)
			us := []float64{rng.Float64(), 0, math.Nextafter(1, 0)}
			for _, c := range l.cum[i][want*len(row) : (want+1)*len(row)] {
				us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
			}
			for _, u := range us {
				if got, want := drawRow(l.cum[i], l.states[i], want, u), drawFrom(row, u); got != want {
					t.Fatalf("node %d, u=%v: drawRow %d, drawFrom %d", i, u, got, want)
				}
			}
			if got, want := l.drawAt(i, iter, values, seed), l.refDrawAt(i, iter, values, seed); got != want {
				t.Fatalf("node %d, iteration %d: compiled draw %d, reference %d", i, iter, got, want)
			}
		}

		// A two-way partition: partition 0 samples its nodes, consuming
		// the others from a ledger that received every other remote
		// node's state and gambles on the rest's defaults.
		parts := make([]int, n)
		defaults := make([]int, n)
		for i := range parts {
			parts[i] = int(at(n+i)>>2) % 2
			defaults[i] = int(at(2*n+i)) % bn.Nodes[i].States
		}
		steps := compileSteps(l, parts, 2, seed)
		stores := [2]*rollback.Store{rollback.NewStore(), rollback.NewStore()}
		for i := range parts {
			if parts[i] == 1 && i%2 == 0 {
				for _, s := range stores {
					s.PutActual(i, iter, values[i])
				}
			}
		}
		w := &worker{store: stores[0], defaults: defaults, steps: steps[0]}
		got, want := make([]int8, len(steps[0])), make([]int8, len(steps[0]))
		w.fillSample(iter, got)
		refFillSample(l, parts, 0, seed, iter, stores[1], defaults, want)
		if !slices.Equal(got, want) {
			t.Fatalf("partition 0 of %v: fillSample %v, reference %v", parts, got, want)
		}
		if a, b := stores[0].Stats(), stores[1].Stats(); a != b {
			t.Fatalf("partition 0 of %v: ledger stats %+v, reference %+v", parts, a, b)
		}

		// Whole serial samples against the reference loop.
		ref := make([]int, n)
		rng, refRng := xrand.New(seed), xrand.New(seed)
		l.sampleInto(values, rng)
		for i := range ref {
			ref[i] = drawFrom(l.dist(i, l.comboIndex(i, ref)), refRng.Float64())
		}
		if !slices.Equal(values, ref) {
			t.Fatalf("sampleInto %v, reference %v", values, ref)
		}
		ev := n - 1
		lw := newLUT(bn, Query{Evidence: map[int]int{ev: values[ev]}})
		wt := lw.sampleWeighted(values, rng)
		refWt := 1.0
		for i := range ref {
			dist := lw.dist(i, lw.comboIndex(i, ref))
			if i == ev {
				ref[i] = lw.ev[i]
				refWt *= dist[ref[i]]
			} else {
				ref[i] = drawFrom(dist, refRng.Float64())
			}
		}
		if !slices.Equal(values, ref) || wt != refWt {
			t.Fatalf("sampleWeighted %v weight %v, reference %v weight %v", values, wt, ref, refWt)
		}
	})
}

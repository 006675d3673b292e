package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// refStep is the pull-CSR superstep kernel before operands existed: it
// folds raw values vertex by vertex, dividing a source's rank by its
// out-degree once per in-edge and skipping sources with no out-edges.
// FuzzStepMatchesReference holds the kernel over operands to it bit
// for bit.
func refStep(g *Graph, algo Algo, view, out []float64, lo, hi int) (residual float64, frontier int64) {
	switch algo {
	case PageRank:
		base := (1 - Damping) / float64(g.N)
		for v := lo; v < hi; v++ {
			sum := 0.0
			for i := g.InOff[v]; i < g.InOff[v+1]; i++ {
				src := g.InSrc[i]
				if d := g.OutDeg[src]; d > 0 {
					sum += view[src] / float64(d)
				}
			}
			nv := base + Damping*sum
			out[v-lo] = nv
			if d := nv - view[v]; d != 0 {
				frontier++
				residual += math.Abs(d)
			}
		}
	case SSSP:
		for v := lo; v < hi; v++ {
			nv := view[v]
			for i := g.InOff[v]; i < g.InOff[v+1]; i++ {
				if d := view[g.InSrc[i]] + g.InW[i]; d < nv {
					nv = d
				}
			}
			out[v-lo] = nv
			if nv < view[v] {
				frontier++
				residual++
			}
		}
	}
	return residual, frontier
}

// fuzzGraph builds a graph of 1-64 vertices through ParseEdgeList from
// byte triples (from, to, weight), dropping self-loops and repeated
// pairs. Unlike the generators' graphs, these may have vertices with no
// out-edges, which operands maps to a zero contribution.
func fuzzGraph(t *testing.T, n uint8, edges []byte) *Graph {
	t.Helper()
	nv := int(n)%64 + 1
	var doc strings.Builder
	fmt.Fprintf(&doc, "n %d\n", nv)
	seen := make(map[[2]int]bool)
	for i := 0; i+2 < len(edges); i += 3 {
		from, to := int(edges[i])%nv, int(edges[i+1])%nv
		if from == to || seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		fmt.Fprintf(&doc, "%d %d %g\n", from, to, float64(edges[i+2])/8+0.125)
	}
	g, err := ParseEdgeList([]byte(doc.String()))
	if err != nil {
		t.Fatalf("generated edge list rejected: %v\n%s", err, doc.String())
	}
	return g
}

// gatherBlock gathers k's ghosts in the block of vertices starting at
// slo from vs, the block's operand form, as a partition does when the
// block's payload arrives.
func gatherBlock(k *kernel, slo int, vs []float64) {
	k.gather(k.ghostIndex(slo), k.ghostIndex(slo+len(vs)), slo, vs)
}

// FuzzStepMatchesReference checks that the kernel computes exactly
// what the per-edge-division CSR kernel did: bitwise-equal new values,
// residual and frontier over an arbitrary range [lo, hi). The rest of
// the graph is split into contiguous blocks of block%N+1 vertices whose
// ghosts are gathered block by block, as a partition gathers arriving
// payloads. Block j comes from a state iters reference supersteps in,
// or from the older state iters/2 supersteps in when bit j%16 of stale
// is set: the mixed freshness asynchronous reads produce. The check
// also holds operands of the range's block to that block of the
// full-range operands, since partitions publish their blocks that way,
// and a frontier of 0 to own unchanged bit for bit, the invariant a
// partition's skipped superstep rests on.
func FuzzStepMatchesReference(f *testing.F) {
	f.Add(uint8(7), []byte{0, 1, 8, 1, 2, 8, 2, 0, 8, 3, 1, 16, 4, 5, 3}, uint8(3), uint16(1), uint16(5), false, uint8(2), uint16(0))
	f.Add(uint8(7), []byte{0, 1, 8, 1, 2, 8, 2, 0, 8, 3, 1, 16, 4, 5, 3}, uint8(4), uint16(0), uint16(8), true, uint8(0), uint16(0))
	f.Add(uint8(15), []byte{0, 1, 1, 1, 2, 255, 2, 3, 7, 3, 0, 9, 0, 9, 2, 9, 10, 4}, uint8(200), uint16(2), uint16(13), true, uint8(3), uint16(5))
	f.Add(uint8(31), []byte{5, 6, 0, 6, 7, 1, 7, 5, 2, 1, 30, 3, 30, 2, 4}, uint8(255), uint16(0), uint16(40), false, uint8(7), uint16(0xffff))
	f.Add(uint8(0), []byte{}, uint8(0), uint16(0), uint16(1), false, uint8(0), uint16(0))
	// A converged PageRank whose sources divide by 3, where r/3 and
	// r*(1/3) differ in the last bit.
	f.Add(uint8(93), []byte("0A00201A0070"), uint8(255), uint16(0), uint16(40), false, uint8(9), uint16(0))
	// A mid-range slice of a 48-vertex graph with every other block
	// stale, under both kernels.
	f.Add(uint8(47), []byte("0123456789abcdefghij0a1b2c3d4e5f6g7h8i9j"), uint8(9), uint16(16), uint16(12), false, uint8(4), uint16(0x5555))
	f.Add(uint8(47), []byte("0123456789abcdefghij0a1b2c3d4e5f6g7h8i9j"), uint8(9), uint16(16), uint16(12), true, uint8(4), uint16(0x5555))
	f.Fuzz(func(t *testing.T, n uint8, edges []byte, iters uint8, a, b uint16, sssp bool, block uint8, stale uint16) {
		g := fuzzGraph(t, n, edges)
		algo := PageRank
		if sssp {
			algo = SSSP
		}
		view := initValues(algo, g.N)
		old := append([]float64(nil), view...)
		next := make([]float64, g.N)
		for it := 0; it < int(iters); it++ {
			if it == int(iters)/2 {
				copy(old, view)
			}
			refStep(g, algo, view, next, 0, g.N)
			view, next = next, view
		}
		lo := int(a) % g.N
		hi := lo + int(b)%(g.N-lo+1)

		ops := make([]float64, g.N)
		operands(g, algo, 0, view, ops)
		own := make([]float64, hi-lo)
		operands(g, algo, lo, view[lo:hi], own)
		for i := range own {
			if math.Float64bits(own[i]) != math.Float64bits(ops[lo+i]) {
				t.Fatalf("%s: operands of [%d,%d) at %d = %v, full-range %v", algo, lo, hi, lo+i, own[i], ops[lo+i])
			}
		}

		// The kernel's operands: its own block, then every other block's
		// ghosts from that block's chosen state. Ghost slots start as
		// NaN, so a ghost no gather reaches poisons the output. mixed is
		// the same view as one vector, for the reference.
		k := newKernel(g, algo, lo, hi, new(kernelScratch))
		for i := range k.ops {
			k.ops[i] = math.NaN()
		}
		copy(k.ops, own)
		mixed := append([]float64(nil), view...)
		size := int(block)%g.N + 1
		j := 0
		for _, span := range [][2]int{{0, lo}, {hi, g.N}} {
			for slo := span[0]; slo < span[1]; slo += size {
				shi := min(slo+size, span[1])
				if stale>>(j%16)&1 == 1 {
					copy(mixed[slo:shi], old[slo:shi])
				}
				payload := make([]float64, shi-slo)
				operands(g, algo, slo, mixed[slo:shi], payload)
				gatherBlock(k, slo, payload)
				j++
			}
		}

		copy(own, view[lo:hi])
		res, front := k.superstep(own)
		want := make([]float64, hi-lo)
		wantRes, wantFront := refStep(g, algo, mixed, want, lo, hi)
		if math.Float64bits(res) != math.Float64bits(wantRes) || front != wantFront {
			t.Fatalf("%s [%d,%d): residual %v frontier %d, reference %v %d", algo, lo, hi, res, front, wantRes, wantFront)
		}
		for i := range own {
			if math.Float64bits(own[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s [%d,%d): vertex %d = %v, reference %v", algo, lo, hi, lo+i, own[i], want[i])
			}
			if front == 0 && math.Float64bits(own[i]) != math.Float64bits(view[lo+i]) {
				t.Fatalf("%s [%d,%d): frontier 0 but vertex %d = %v, was %v", algo, lo, hi, lo+i, own[i], view[lo+i])
			}
		}
	})
}

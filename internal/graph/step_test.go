package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// refStep is the superstep kernel before operands existed: it folds raw
// values, dividing a source's rank by its out-degree once per in-edge
// and skipping sources with no out-edges. FuzzStepMatchesReference
// holds step over operands to it bit for bit.
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

// FuzzStepMatchesReference checks that step over operands computes
// exactly what the per-edge-division kernel did: bitwise-equal out,
// residual and frontier, from views part way to convergence (iters
// reference supersteps from the initial state) over an arbitrary owned
// range [lo, hi). It also checks that operands of an owned block equals
// that block of the full-range operands, since partitions publish their
// blocks that way, and that a frontier of 0 means out equals own bit
// for bit, the invariant a partition's skipped superstep rests on.
func FuzzStepMatchesReference(f *testing.F) {
	f.Add(uint8(7), []byte{0, 1, 8, 1, 2, 8, 2, 0, 8, 3, 1, 16, 4, 5, 3}, uint8(3), uint16(1), uint16(5), false)
	f.Add(uint8(7), []byte{0, 1, 8, 1, 2, 8, 2, 0, 8, 3, 1, 16, 4, 5, 3}, uint8(4), uint16(0), uint16(8), true)
	f.Add(uint8(15), []byte{0, 1, 1, 1, 2, 255, 2, 3, 7, 3, 0, 9, 0, 9, 2, 9, 10, 4}, uint8(200), uint16(2), uint16(13), true)
	f.Add(uint8(31), []byte{5, 6, 0, 6, 7, 1, 7, 5, 2, 1, 30, 3, 30, 2, 4}, uint8(255), uint16(0), uint16(40), false)
	f.Add(uint8(0), []byte{}, uint8(0), uint16(0), uint16(1), false)
	// A converged PageRank whose sources divide by 3, where r/3 and
	// r*(1/3) differ in the last bit.
	f.Add(uint8(93), []byte("0A00201A0070"), uint8(255), uint16(0), uint16(40), false)
	f.Fuzz(func(t *testing.T, n uint8, edges []byte, iters uint8, a, b uint16, sssp bool) {
		g := fuzzGraph(t, n, edges)
		algo := PageRank
		if sssp {
			algo = SSSP
		}
		view := initValues(algo, g.N)
		next := make([]float64, g.N)
		for it := 0; it < int(iters); it++ {
			refStep(g, algo, view, next, 0, g.N)
			view, next = next, view
		}
		lo := int(a) % g.N
		hi := lo + int(b)%(g.N-lo+1)

		ops := make([]float64, g.N)
		operands(g, algo, 0, view, ops)
		block := make([]float64, hi-lo)
		operands(g, algo, lo, view[lo:hi], block)
		for i := range block {
			if math.Float64bits(block[i]) != math.Float64bits(ops[lo+i]) {
				t.Fatalf("%s: operands of [%d,%d) at %d = %v, full-range %v", algo, lo, hi, lo+i, block[i], ops[lo+i])
			}
		}

		own := view[lo:hi]
		out := make([]float64, hi-lo)
		want := make([]float64, hi-lo)
		res, front := step(g, algo, ops, own, out, lo, hi)
		wantRes, wantFront := refStep(g, algo, view, want, lo, hi)
		if math.Float64bits(res) != math.Float64bits(wantRes) || front != wantFront {
			t.Fatalf("%s [%d,%d): residual %v frontier %d, reference %v %d", algo, lo, hi, res, front, wantRes, wantFront)
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s [%d,%d): out[%d] = %v, reference %v", algo, lo, hi, i, out[i], want[i])
			}
			if front == 0 && math.Float64bits(out[i]) != math.Float64bits(own[i]) {
				t.Fatalf("%s [%d,%d): frontier 0 but out[%d] = %v, own %v", algo, lo, hi, i, out[i], own[i])
			}
		}
	})
}

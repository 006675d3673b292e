// Package graph implements the delayed asynchronous iterative graph
// workloads (Blanco et al., "Delayed Asynchronous Iterative Graph
// Algorithms") as the repo's third race-tolerant application family
// beside the island GA and parallel logic sampling: PageRank and
// Bellman-Ford SSSP partitioned across simulated cluster nodes, each
// partition publishing its sub-vector (PageRank contributions,
// rank/out-degree, or SSSP distances) through a core.Location write
// per superstep and reading neighbor state via
// Global_Read under the three coherence disciplines the paper compares
// (sync barrier, fully asynchronous, age-bounded non-strict).
//
// Both kernels are Jacobi-style fixed-point iterations whose update
// operators tolerate stale operands: PageRank's contribution sum and
// SSSP's min-relaxation both converge to the same unique fixed point
// from any bounded-staleness schedule, which is exactly the
// data-race-tolerance property non-strict coherence exploits. The
// differential and property test harness in this package proves it
// against a sequential oracle.
//
// Every superstep, partitioned or sequential, runs through one kernel
// per vertex range: the range's vertices ranked by in-degree, their
// in-edges stored jagged-diagonal, and each source relabelled into a
// compact operand array holding the range's own block and then the
// out-of-range sources it reads. The fold is branch-free per diagonal,
// and each vertex still folds the same operands in CSR order, so the
// results are bit for bit those of the plain pull-CSR fold.
//
// A Plan lays out one graph, algorithm and partition count once: the
// partitions' vertex blocks, their DSM locations and source lists, and
// each partition's kernel. Run is NewPlan followed by (*Plan).Run; a
// graph sweep cell runs its seven coherence variants on one plan, and
// concurrent runs may share it, since a run clones only its kernels'
// operands and accumulators.
//
// A partition publishes its state as a state block, which implements
// core.Block. The DSM nodes count the buffers and messages holding a
// block, and the last release returns it to its partition's free list,
// so a partition cycles through a few blocks instead of allocating one
// per changed superstep. Readers tell blocks apart by the superstep
// stamp each carries, not by array identity. The test-only nscc_poison
// build tag fills a released block with NaN, so a use after release
// changes the results (and has a recycled convergence report name
// partition -1, so folding it again panics).
package graph

import (
	"fmt"
	"math"
)

// Edge is one directed, weighted edge of an input edge list.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is a directed weighted graph in a pull-oriented CSR layout:
// for each vertex, the sources and weights of its in-edges. Both
// kernels are pull-based (a vertex folds its in-neighbors' state), so
// in-edge adjacency plus the static out-degree vector is the whole
// structural requirement.
type Graph struct {
	N int // vertices, numbered 0..N-1

	// In-edge CSR: the in-edges of vertex v are
	// (InSrc[i], InW[i]) for i in [InOff[v], InOff[v+1]).
	InOff []int32
	InSrc []int32
	InW   []float64

	// OutDeg[u] is u's out-degree (PageRank divides u's rank by it).
	OutDeg []int32
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.InSrc) }

// checkEdges validates an edge list against n vertices: indices in
// range, no self-loops, no duplicate (from, to) pairs, and weights
// positive and finite. These are exactly the malformed-input classes
// the topology fuzzer drives at the loaders.
func checkEdges(n int, edges []Edge) error {
	if n <= 0 {
		return fmt.Errorf("graph: need at least 1 vertex, have %d", n)
	}
	seen := make(map[int64]bool, len(edges))
	for i, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.From, e.To, n)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: edge %d is a self-loop at vertex %d", i, e.From)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight <= 0 {
			return fmt.Errorf("graph: edge %d (%d->%d) has invalid weight %v (must be positive and finite)",
				i, e.From, e.To, e.Weight)
		}
		key := int64(e.From)*int64(n) + int64(e.To)
		if seen[key] {
			return fmt.Errorf("graph: duplicate edge %d->%d", e.From, e.To)
		}
		seen[key] = true
	}
	return nil
}

// New builds the CSR graph from an edge list, validating it (no
// self-loops, no duplicates, positive finite weights, indices in
// range). The CSR orders each vertex's in-edges by their position in
// the input list, so two calls with the same list produce identical
// float accumulation order in the kernels.
func New(n int, edges []Edge) (*Graph, error) {
	if err := checkEdges(n, edges); err != nil {
		return nil, err
	}
	g := &Graph{
		N:      n,
		InOff:  make([]int32, n+1),
		InSrc:  make([]int32, len(edges)),
		InW:    make([]float64, len(edges)),
		OutDeg: make([]int32, n),
	}
	for _, e := range edges {
		g.InOff[e.To+1]++
		g.OutDeg[e.From]++
	}
	for v := 0; v < n; v++ {
		g.InOff[v+1] += g.InOff[v]
	}
	next := make([]int32, n)
	copy(next, g.InOff[:n])
	for _, e := range edges {
		i := next[e.To]
		next[e.To]++
		g.InSrc[i] = int32(e.From)
		g.InW[i] = e.Weight
	}
	return g, nil
}

// partBounds splits [0, n) into p contiguous blocks; partition i owns
// [lo[i], lo[i+1]). Remainder vertices go to the leading partitions, so
// block sizes differ by at most one.
func partBounds(n, p int) []int {
	lo := make([]int, p+1)
	q, r := n/p, n%p
	for i := 0; i < p; i++ {
		lo[i+1] = lo[i] + q
		if i < r {
			lo[i+1]++
		}
	}
	return lo
}

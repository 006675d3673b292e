package graph

import (
	"fmt"
	"math"

	"nscc/internal/sim"
)

// Algo selects the iterative kernel.
type Algo int

const (
	// PageRank is the damped pull-based Jacobi PageRank iteration.
	PageRank Algo = iota
	// SSSP is Bellman-Ford-style single-source shortest paths from
	// vertex 0, as a Jacobi min-relaxation.
	SSSP
)

func (a Algo) String() string {
	switch a {
	case PageRank:
		return "pagerank"
	case SSSP:
		return "sssp"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Algos is the workload family, in sweep order.
var Algos = []Algo{PageRank, SSSP}

// Damping is PageRank's damping factor.
const Damping = 0.85

// DiffEps is the documented differential tolerance: a partitioned run
// under any coherence discipline must converge to within this
// L-infinity distance of the sequential oracle. It sits three orders
// of magnitude above DefaultEps/(1-Damping), the worst-case distance
// of an approximate PageRank fixed point from the true one, so a pass
// is meaningful and a termination bug (not float noise) is what fails
// it. SSSP runs converge to the exact fixed point — min-relaxation
// over identical operands is order-invariant — and are compared
// against the same bound.
const DiffEps = 1e-6

// DefaultEps is the convergence threshold of every partitioned run,
// and of a sequential run given no positive bound: a partition is
// "clean" when its per-superstep residual (L1 rank delta for PageRank,
// relaxation count for SSSP) is at or below its share of this bound.
const DefaultEps = 1e-9

// initValues returns the kernel's iteration-0 state vector: uniform
// 1/n rank for PageRank; +Inf distances with source 0 at zero for SSSP.
func initValues(algo Algo, n int) []float64 {
	vals := make([]float64, n)
	switch algo {
	case PageRank:
		r0 := 1 / float64(n)
		for i := range vals {
			vals[i] = r0
		}
	case SSSP:
		for i := range vals {
			vals[i] = math.Inf(1)
		}
		vals[0] = 0
	}
	return vals
}

// operands writes the kernel's read form of the values of vertices
// [lo, lo+len(vals)) into dst, which the kernel folds along in-edges in
// place of the values themselves. For PageRank it is each vertex's
// contribution to its out-neighbors, rank / OutDeg (0 for a vertex with
// no out-edges: the fold's sum starts at +0, so it is never -0 and
// adding +0 leaves it unchanged); for SSSP it is the distance itself.
// Dividing once per vertex here rather than once per in-edge in the
// fold is the same IEEE division on the same operands, so the kernel's
// output is bit for bit what per-edge division gives. A partition
// publishes its owned block in this form, so readers never divide.
func operands(g *Graph, algo Algo, lo int, vals, dst []float64) {
	switch algo {
	case PageRank:
		for i, r := range vals {
			if d := g.OutDeg[lo+i]; d > 0 {
				dst[i] = r / float64(d)
			} else {
				dst[i] = 0
			}
		}
	case SSSP:
		copy(dst, vals)
	}
}

// SeqResult is one sequential oracle run: the converged state vector,
// the superstep count, and the modeled serial execution time (the
// speedup baseline).
type SeqResult struct {
	Values []float64
	Iters  int64
	Time   sim.Duration
}

// RunSequential runs algo on a single node to the global residual
// bound eps (capped at maxIters supersteps) and models its serial time
// as iters unjittered whole-graph supersteps. This is the
// differential-test ground truth: the parallel runners' converged
// vectors must match it within the package's documented epsilon.
func RunSequential(g *Graph, algo Algo, eps float64, maxIters int64, calib Calibration) SeqResult {
	if eps <= 0 {
		eps = DefaultEps
	}
	cur := initValues(algo, g.N)
	k := newKernel(g, algo, 0, g.N, nil)
	var iters int64
	for iters = 0; iters < maxIters; iters++ {
		operands(g, algo, 0, cur, k.ops)
		residual, _ := k.superstep(cur)
		if residual <= eps {
			iters++
			break
		}
	}
	return SeqResult{
		Values: cur,
		Iters:  iters,
		Time:   sim.Duration(iters) * calib.StepCost(g.N, g.M()),
	}
}

// MaxDiff returns the L-infinity distance between two state vectors,
// treating matching infinities (unreachable SSSP vertices) as equal.
func MaxDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if math.IsInf(a[i], 1) && math.IsInf(b[i], 1) {
			continue
		}
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

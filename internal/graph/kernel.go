package graph

import (
	"math"
	"math/bits"
	"slices"
)

// kernel is one vertex range's superstep, laid out for the fold. A
// Plan builds one per partition, and each of its runs folds on clones;
// the sequential oracle builds one over the whole graph per
// RunSequential. Both then call superstep once per superstep, so the
// per-vertex float operation order is identical everywhere by
// construction; only the freshness of the operands differs between
// coherence disciplines.
//
// The range's vertices are ranked by in-degree, descending, with a
// stable counting sort, so equal in-degrees keep vertex order. The
// in-edges are stored jagged-diagonal: diagonal d holds the d-th
// in-edge, in CSR order, of every rank whose in-degree exceeds d, which
// are ranks [0, len(diagonal d)). Each source is relabelled to a slot
// of ops, the compact operand array: the range's own block first, then
// the out-of-range sources (the ghosts) in ascending order.
type kernel struct {
	algo Algo
	lo   int     // first vertex of the range
	n    int     // vertices in the range
	base float64 // PageRank's teleport term, (1-Damping)/N

	rank []int32   // rank[i] is the rank of vertex lo+i
	diag []int32   // diagonal d is entries [diag[d], diag[d+1])
	src  []int32   // each entry's operand slot
	w    []float64 // each entry's weight; SSSP only

	// ghosts[j] is the vertex whose operand sits in slot n+j.
	ghosts []int32
	// ops holds the operands (see operands) superstep folds: slot i <
	// n is vertex lo+i, slot n+j is ghosts[j].
	ops []float64
	acc []float64 // per-rank fold accumulator
}

// kernelScratch is the graph-length scratch newKernel relabels ghosts
// in. Builds made one at a time can share it: a build grows it to its
// graph's size if need be and leaves the marks clear.
type kernelScratch struct {
	mark []uint64 // bit u is set while vertex u is a ghost of the build
	slot []int32  // slot[u] is ghost u's operand slot in the build
}

// newKernel lays out the superstep of algo over the vertex range
// [lo, hi) of g. Its operand slots start at zero. The build is
// O(hi-lo + in-edges + N/64); sc may be nil for the whole-graph range,
// which has no ghosts.
func newKernel(g *Graph, algo Algo, lo, hi int, sc *kernelScratch) *kernel {
	n := hi - lo
	off := g.InOff[lo : hi+1]
	k := &kernel{
		algo: algo, lo: lo, n: n,
		base: (1 - Damping) / float64(g.N),
		rank: make([]int32, n),
		acc:  make([]float64, n),
	}

	// Counting sort by in-degree, descending. After the prefix pass,
	// next[d] is the first rank of in-degree d, which is also the
	// count of in-degrees above d: the length of diagonal d.
	var maxDeg int32
	for i := 0; i < n; i++ {
		maxDeg = max(maxDeg, off[i+1]-off[i])
	}
	next := make([]int32, maxDeg+1)
	for i := 0; i < n; i++ {
		next[off[i+1]-off[i]]++
	}
	var above int32
	for d := maxDeg; d >= 0; d-- {
		next[d], above = above, above+next[d]
	}
	k.diag = make([]int32, maxDeg+1)
	for d := int32(0); d < maxDeg; d++ {
		k.diag[d+1] = k.diag[d] + next[d]
	}
	for i := 0; i < n; i++ {
		deg := off[i+1] - off[i]
		k.rank[i] = next[deg]
		next[deg]++
	}

	// Ghosts: mark each out-of-range source once, then number them in
	// ascending vertex order, clearing the marks.
	in := g.InSrc[off[0]:off[n]]
	outside := func(u int32) bool { return int(u) < lo || int(u) >= hi }
	if n < g.N && len(sc.slot) < g.N {
		sc.mark = make([]uint64, (g.N+63)/64)
		sc.slot = make([]int32, g.N)
	}
	nghost := 0
	for _, u := range in {
		if outside(u) && sc.mark[u>>6]&(1<<(u&63)) == 0 {
			sc.mark[u>>6] |= 1 << (u & 63)
			nghost++
		}
	}
	k.ghosts = make([]int32, 0, nghost)
	for wi := 0; len(k.ghosts) < nghost; wi++ {
		for m := sc.mark[wi]; m != 0; m &= m - 1 {
			u := int32(wi<<6 + bits.TrailingZeros64(m))
			sc.slot[u] = int32(n + len(k.ghosts))
			k.ghosts = append(k.ghosts, u)
		}
		sc.mark[wi] = 0
	}

	k.src = make([]int32, len(in))
	if algo == SSSP {
		k.w = make([]float64, len(in))
	}
	for i := 0; i < n; i++ {
		r := k.rank[i]
		for d, e := 0, off[i]; e < off[i+1]; d, e = d+1, e+1 {
			u := g.InSrc[e]
			s := u - int32(lo)
			if outside(u) {
				s = sc.slot[u]
			}
			at := k.diag[d] + r
			k.src[at] = s
			if k.w != nil {
				k.w[at] = g.InW[e]
			}
		}
	}
	k.ops = make([]float64, n+len(k.ghosts))
	return k
}

// clone returns a kernel that shares k's layout and starts from a copy
// of k's operands, with an accumulator of its own, so it can fold while
// other clones of k fold too.
func (k *kernel) clone() *kernel {
	c := *k
	c.ops = slices.Clone(k.ops)
	c.acc = make([]float64, len(k.acc))
	return &c
}

// load fills every operand slot from view, the operand form of the
// whole graph.
func (k *kernel) load(view []float64) {
	copy(k.ops[:k.n], view[k.lo:])
	for j, u := range k.ghosts {
		k.ops[k.n+j] = view[u]
	}
}

// ghostIndex returns the index of the first ghost at or above vertex v.
func (k *kernel) ghostIndex(v int) int {
	j, _ := slices.BinarySearch(k.ghosts, int32(v))
	return j
}

// gather fills the ghost slots [k.n+a, k.n+b) from vs, the operand form
// of a block of vertices starting at vertex slo that holds ghosts[a:b].
func (k *kernel) gather(a, b, slo int, vs []float64) {
	dst := k.ops[k.n+a : k.n+b]
	for j, u := range k.ghosts[a:b] {
		dst[j] = vs[int(u)-slo]
	}
}

// superstep computes one Jacobi superstep of the range from ops and
// own, the range's current values (own[i] is vertex lo+i's), and
// writes the new values into own, reading each own[i] before it writes
// it. It returns the range's residual, the L1 delta for PageRank and
// the count of relaxed vertices for SSSP, and the number of vertices
// whose value changed (the frontier).
//
// The fold runs diagonal by diagonal with independent lanes: PageRank
// adds acc[r] += ops[src] from +0, and SSSP relaxes acc[r] =
// min(acc[r], ops[src]+w) from own. Each vertex still folds the same
// operands in CSR order from the same start value, and a final pass in
// ascending vertex order computes the new values, residual and
// frontier, so every bit equals the pull-CSR fold's. The builtin min
// equals the comparison form `if d < nv { nv = d }` here because no
// NaN and no -0 reach it: checkEdges admits only positive finite
// weights, and distances start at +0 or +Inf.
//
// A frontier of 0 means own is unchanged bit for bit: PageRank counts
// every nonzero delta, and SSSP's min-relaxation starts from own and
// counts every decrease. So a partition whose own values and operands
// are unchanged since a frontier-0 call may skip the next one: it
// would return residual 0 and frontier 0 and leave own as it is.
//
//nscc:commutative
func (k *kernel) superstep(own []float64) (residual float64, frontier int64) {
	acc, ops := k.acc, k.ops
	switch k.algo {
	case PageRank:
		clear(acc)
		for d := 0; d+1 < len(k.diag); d++ {
			src := k.src[k.diag[d]:k.diag[d+1]]
			a := acc[:len(src)]
			for r, s := range src {
				a[r] += ops[s]
			}
		}
		for i, r := range k.rank {
			nv := k.base + Damping*acc[r]
			if d := nv - own[i]; d != 0 {
				frontier++
				residual += math.Abs(d)
			}
			own[i] = nv
		}
	case SSSP:
		for i, r := range k.rank {
			acc[r] = own[i]
		}
		for d := 0; d+1 < len(k.diag); d++ {
			src := k.src[k.diag[d]:k.diag[d+1]]
			w := k.w[k.diag[d]:k.diag[d+1]]
			a := acc[:len(src)]
			for r, s := range src {
				a[r] = min(a[r], ops[s]+w[r])
			}
		}
		for i, r := range k.rank {
			if nv := acc[r]; nv < own[i] {
				frontier++
				residual++
				own[i] = nv
			}
		}
	}
	return residual, frontier
}

package graph

import (
	"math"
	"testing"
)

// TestKernelLayout checks the kernel's layout over partition ranges of
// several graphs: ranks ordered by in-degree, descending and stable;
// every in-edge on its diagonal in CSR order, through an operand slot
// that names its source; ghosts ascending, outside the range and each
// read by some in-edge; and a vertex of in-degree 0 folding to the
// teleport term for PageRank and keeping its value for SSSP.
func TestKernelLayout(t *testing.T) {
	// Vertices 0 and 5 have no in-edges; vertex 4 has three.
	tiny, err := ParseEdgeList([]byte("n 6\n0 1 2\n1 2 3\n2 3 1\n0 4 5\n3 4 1\n5 4 2\n5 2 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{"tiny": tiny}
	for _, spec := range []string{"random:n=200,m=900,seed=3", "clustered:n=120,k=4,seed=5", "ring:9"} {
		if graphs[spec], err = ParseTopoSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	// One scratch serves every build, across graphs of every size.
	var sc kernelScratch
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			for _, p := range []int{1, 2, 3, 5} {
				bounds := partBounds(g.N, p)
				for q := 0; q < p; q++ {
					for _, algo := range Algos {
						lo, hi := bounds[q], bounds[q+1]
						checkLayout(t, g, algo, lo, hi, newKernel(g, algo, lo, hi, &sc))
					}
				}
			}
		})
	}
}

// checkLayout fails t unless k, built over [lo, hi) of g, has the
// layout TestKernelLayout describes.
func checkLayout(t *testing.T, g *Graph, algo Algo, lo, hi int, k *kernel) {
	t.Helper()
	n := hi - lo
	deg := func(i int) int32 { return g.InOff[lo+i+1] - g.InOff[lo+i] }

	// Ranks: a permutation of the range, in-degree descending, ties in
	// vertex order.
	byRank := make([]int, n)
	for i := range byRank {
		byRank[i] = -1
	}
	for i, r := range k.rank {
		if r < 0 || int(r) >= n || byRank[r] >= 0 {
			t.Fatalf("[%d,%d): rank %d of vertex %d repeats or leaves the range", lo, hi, r, lo+i)
		}
		byRank[r] = i
	}
	for r := 1; r < n; r++ {
		a, b := byRank[r-1], byRank[r]
		if deg(a) < deg(b) || deg(a) == deg(b) && a > b {
			t.Fatalf("[%d,%d): rank %d is vertex %d (in-degree %d), rank %d vertex %d (in-degree %d)",
				lo, hi, r-1, lo+a, deg(a), r, lo+b, deg(b))
		}
	}

	// Ghosts: ascending, outside the range, each read.
	for j, u := range k.ghosts {
		if int(u) >= lo && int(u) < hi || j > 0 && u <= k.ghosts[j-1] {
			t.Fatalf("[%d,%d): ghost %d is vertex %d after %v", lo, hi, j, u, k.ghosts[:j])
		}
	}
	if len(k.ops) != n+len(k.ghosts) {
		t.Fatalf("[%d,%d): %d operand slots for %d vertices and %d ghosts", lo, hi, len(k.ops), n, len(k.ghosts))
	}
	vertexOf := func(s int32) int {
		if int(s) < n {
			return lo + int(s)
		}
		return int(k.ghosts[int(s)-n])
	}

	// Diagonals: diagonal d holds the d-th in-edge of ranks [0, len).
	read := make([]bool, len(k.ghosts))
	entries := 0
	for d := 0; d+1 < len(k.diag); d++ {
		width := int(k.diag[d+1] - k.diag[d])
		entries += width
		for r := 0; r < n; r++ {
			i := byRank[r]
			if (r < width) != (int(deg(i)) > d) {
				t.Fatalf("[%d,%d): diagonal %d has %d entries, rank %d (in-degree %d)", lo, hi, d, width, r, deg(i))
			}
			if r >= width {
				continue
			}
			at := int(k.diag[d]) + r
			e := g.InOff[lo+i] + int32(d)
			s := k.src[at]
			if s < 0 || int(s) >= len(k.ops) || vertexOf(s) != int(g.InSrc[e]) {
				t.Fatalf("[%d,%d): in-edge %d of vertex %d reads slot %d, want source %d", lo, hi, d, lo+i, s, g.InSrc[e])
			}
			if int(s) >= n {
				read[int(s)-n] = true
			}
			if algo == SSSP && k.w[at] != g.InW[e] {
				t.Fatalf("[%d,%d): in-edge %d of vertex %d has weight %v, want %v", lo, hi, d, lo+i, k.w[at], g.InW[e])
			}
		}
	}
	if want := int(g.InOff[hi] - g.InOff[lo]); entries != want || len(k.src) != want {
		t.Fatalf("[%d,%d): %d diagonal entries, %d slots, want %d in-edges", lo, hi, entries, len(k.src), want)
	}
	if algo == PageRank && k.w != nil {
		t.Fatalf("[%d,%d): PageRank kernel stores weights", lo, hi)
	}
	for j, ok := range read {
		if !ok {
			t.Fatalf("[%d,%d): no in-edge reads ghost %d (vertex %d)", lo, hi, j, k.ghosts[j])
		}
	}

	// In-degree 0: PageRank folds to base, SSSP keeps the value.
	for s := range k.ops {
		k.ops[s] = 0.25
	}
	own := make([]float64, n)
	for i := range own {
		own[i] = float64(i) + 0.5
	}
	k.superstep(own)
	for i := range own {
		if deg(i) != 0 {
			continue
		}
		want := float64(i) + 0.5
		if algo == PageRank {
			want = (1 - Damping) / float64(g.N)
		}
		if math.Float64bits(own[i]) != math.Float64bits(want) {
			t.Fatalf("[%d,%d): %s vertex %d of in-degree 0 folds to %v, want %v", lo, hi, algo, lo+i, own[i], want)
		}
	}
}

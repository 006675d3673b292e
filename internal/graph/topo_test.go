package graph

import (
	"strings"
	"testing"
)

// checkWellFormed asserts the structural invariants every generator
// guarantees: no self-loops, no duplicate edges, positive finite
// weights, and out-degree >= 1 everywhere (PageRank's mass-conservation
// precondition).
func checkWellFormed(t *testing.T, g *Graph) {
	t.Helper()
	seen := make(map[int64]bool)
	for v := 0; v < g.N; v++ {
		for i := g.InOff[v]; i < g.InOff[v+1]; i++ {
			src, w := int(g.InSrc[i]), g.InW[i]
			if src == v {
				t.Errorf("self-loop at vertex %d", v)
			}
			if !(w > 0) {
				t.Errorf("edge %d->%d has weight %v", src, v, w)
			}
			key := int64(src)*int64(g.N) + int64(v)
			if seen[key] {
				t.Errorf("duplicate edge %d->%d", src, v)
			}
			seen[key] = true
		}
	}
	for v, d := range g.OutDeg {
		if d < 1 {
			t.Errorf("vertex %d has out-degree %d", v, d)
		}
	}
}

func TestGenerators(t *testing.T) {
	ring, err := Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, ring)
	if ring.M() != 10 {
		t.Errorf("ring(10) has %d edges, want 10", ring.M())
	}

	rnd, err := Random(32, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, rnd)
	if rnd.M() != 32+64 {
		t.Errorf("random(32,64) has %d edges, want 96", rnd.M())
	}
	rnd2, err := Random(32, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.M() != rnd2.M() || rnd.InSrc[95] != rnd2.InSrc[95] {
		t.Error("Random is not deterministic in its seed")
	}

	cl, err := Clustered(40, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, cl)
}

func TestGeneratorErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"ring n=1", func() error { _, err := Ring(1); return err }()},
		{"ring too big", func() error { _, err := Ring(maxVertices + 1); return err }()},
		{"random m<0", func() error { _, err := Random(4, -1, 1); return err }()},
		{"clustered n<2k", func() error { _, err := Clustered(6, 4, 1); return err }()},
	} {
		if tc.err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestNewRejectsMalformedEdges(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  string
	}{
		{"self-loop", 3, []Edge{{0, 0, 1}}, "self-loop"},
		{"duplicate", 3, []Edge{{0, 1, 1}, {0, 1, 2}}, "duplicate"},
		{"negative weight", 3, []Edge{{0, 1, -1}}, "invalid weight"},
		{"zero weight", 3, []Edge{{0, 1, 0}}, "invalid weight"},
		{"nan weight", 3, []Edge{{0, 1, nan()}}, "invalid weight"},
		{"out of range", 3, []Edge{{0, 5, 1}}, "out of range"},
		{"no vertices", 0, nil, "at least 1 vertex"},
	}
	for _, tc := range cases {
		_, err := New(tc.n, tc.edges)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestParseTopoSpec(t *testing.T) {
	for _, spec := range []string{"ring:8", "random:n=16,m=20,seed=2", "random:n=16", "clustered:n=16,k=2,seed=5"} {
		g, err := ParseTopoSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		checkWellFormed(t, g)
	}
	for _, spec := range []string{"", "grid:8", "ring:x", "random:", "random:m=4", "random:n=8,q=1", "random:n=8,m", "clustered:n=4,k=9"} {
		if _, err := ParseTopoSpec(spec); err == nil {
			t.Errorf("spec %q: no error", spec)
		}
	}
}

func TestParseEdgeList(t *testing.T) {
	g, err := ParseEdgeList([]byte("# a square\nn 4\n0 1 2.5\n1 2\n2 3 1\n3 0 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, g)
	if g.N != 4 || g.M() != 4 {
		t.Fatalf("parsed n=%d m=%d, want 4/4", g.N, g.M())
	}
	if g.InW[g.InOff[2]] != 1 {
		t.Errorf("default weight not applied: %v", g.InW[g.InOff[2]])
	}

	bad := []string{
		"",                      // no header
		"0 1 2\n",               // edges before header
		"n 0\n",                 // zero vertices
		"n 4\n0 1 nan\n",        // NaN weight
		"n 4\n0 1 -3\n",         // negative weight
		"n 4\n1 1\n",            // self-loop
		"n 4\n0 1\n0 1\n",       // duplicate
		"n 4\n0 9\n",            // out of range
		"n 4\n0 1 2 3\n",        // too many fields
		"n 4\nx 1\n",            // non-numeric
		"n 99999999999999999\n", // overflow / over cap
	}
	for _, s := range bad {
		if _, err := ParseEdgeList([]byte(s)); err == nil {
			t.Errorf("ParseEdgeList(%q): no error", s)
		}
	}
}

func TestPartBounds(t *testing.T) {
	lo := partBounds(10, 4)
	want := []int{0, 3, 6, 8, 10}
	for i := range want {
		if lo[i] != want[i] {
			t.Fatalf("partBounds(10,4) = %v, want %v", lo, want)
		}
	}
}

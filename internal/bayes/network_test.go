package bayes

import (
	"math"
	"testing"
	"testing/quick"

	"nscc/internal/xrand"
)

func TestFigure1Structure(t *testing.T) {
	bn := Figure1()
	if bn.N() != 5 || bn.Edges() != 5 {
		t.Fatalf("figure1: %d nodes %d edges", bn.N(), bn.Edges())
	}
	if err := bn.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's explicit numbers: p(A=true)=0.20 and
	// p(D=true | B=true, C=true)=0.80.
	if bn.Nodes[0].CPT[0][1] != 0.20 {
		t.Fatalf("p(A=true) = %v", bn.Nodes[0].CPT[0][1])
	}
	d := bn.Nodes[3]
	if d.CPT[3][1] != 0.80 { // row 3 = (B=true, C=true)
		t.Fatalf("p(D=t|B=t,C=t) = %v", d.CPT[3][1])
	}
}

func TestValidateCatchesBadNetworks(t *testing.T) {
	cases := []struct {
		name string
		bn   *Network
	}{
		{"non-topological parent", &Network{Nodes: []Node{
			{Name: "x", States: 2, Parents: []int{1}, CPT: [][]float64{{0.5, 0.5}, {0.5, 0.5}}},
			{Name: "y", States: 2, CPT: [][]float64{{0.5, 0.5}}},
		}}},
		{"wrong CPT rows", &Network{Nodes: []Node{
			{Name: "x", States: 2, CPT: [][]float64{{0.5, 0.5}, {0.5, 0.5}}},
		}}},
		{"row does not sum to 1", &Network{Nodes: []Node{
			{Name: "x", States: 2, CPT: [][]float64{{0.5, 0.4}}},
		}}},
		{"negative probability", &Network{Nodes: []Node{
			{Name: "x", States: 2, CPT: [][]float64{{1.5, -0.5}}},
		}}},
		{"NaN probabilities", &Network{Nodes: []Node{
			{Name: "x", States: 2, CPT: [][]float64{{math.NaN(), math.NaN()}}},
		}}},
		{"one state", &Network{Nodes: []Node{
			{Name: "x", States: 1, CPT: [][]float64{{1}}},
		}}},
	}
	for _, c := range cases {
		if err := c.bn.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
}

func TestComboIndex(t *testing.T) {
	l := newLUT(Figure1(), Query{})
	vals := make([]int, 5)
	vals[1], vals[2] = 1, 0 // B=true, C=false
	if got := l.combo(3, vals); got != 2 {
		t.Fatalf("combo(B=t,C=f) = %d, want 2", got)
	}
	vals[1], vals[2] = 1, 1
	if got := l.combo(3, vals); got != 3 {
		t.Fatalf("combo(B=t,C=t) = %d, want 3", got)
	}
}

func TestSampleMarginals(t *testing.T) {
	bn := Figure1()
	l := newLUT(bn, Query{})
	rng := xrand.New(1)
	values := make([]int, bn.N())
	const n = 50000
	countA := 0
	for i := 0; i < n; i++ {
		l.sampleInto(values, rng)
		countA += values[0]
	}
	pA := float64(countA) / n
	if math.Abs(pA-0.20) > 0.01 {
		t.Fatalf("sampled p(A=true) = %v, want 0.20", pA)
	}
}

func TestSampleNodeAtDeterministic(t *testing.T) {
	l := newLUT(Figure1(), Query{})
	vals := make([]int, 5)
	vals[1], vals[2] = 1, 1
	a := l.drawAt(3, 42, vals, 7)
	b := l.drawAt(3, 42, vals, 7)
	if a != b {
		t.Fatal("same (node, iter, parents, seed) gave different draws")
	}
	// Different iterations must give an independent stream: over many
	// iterations the frequency must approach the CPT.
	hits := 0
	const n = 20000
	for it := int64(0); it < n; it++ {
		hits += l.drawAt(3, it, vals, 7)
	}
	p := float64(hits) / n
	if math.Abs(p-0.80) > 0.01 {
		t.Fatalf("replayable draw frequency %v, want 0.80", p)
	}
}

func TestSampleNodeAtParentSensitivity(t *testing.T) {
	l := newLUT(Figure1(), Query{})
	valsTT := []int{0, 1, 1, 0, 0}
	valsFF := []int{0, 0, 0, 0, 0}
	same := 0
	for it := int64(0); it < 200; it++ {
		if l.drawAt(3, it, valsTT, 7) == l.drawAt(3, it, valsFF, 7) {
			same++
		}
	}
	// p(D=t|t,t)=0.8 vs p(D=t|f,f)=0.05: agreement should be ~0.23, far
	// from 1. If the combo is not hashed in, draws would coincide often.
	if same > 120 {
		t.Fatalf("draws insensitive to parent change: %d/200 equal", same)
	}
}

func TestDefaults(t *testing.T) {
	bn := Figure1()
	defs := bn.Defaults(5000, 1)
	// p(A=false)=0.8: the paper says false is A's default.
	if defs[0] != 0 {
		t.Fatalf("default for A = %d, want 0 (false)", defs[0])
	}
	if len(defs) != 5 {
		t.Fatalf("defaults length %d", len(defs))
	}
	// Determinism.
	defs2 := bn.Defaults(5000, 1)
	for i := range defs {
		if defs[i] != defs2[i] {
			t.Fatal("Defaults not deterministic")
		}
	}
}

func TestRandomNetworksMatchTable2(t *testing.T) {
	nets := Table2Networks()
	want := []struct {
		name   string
		n      int
		epn    float64
		states int
	}{
		{"A", 54, 2.2, 2},
		{"AA", 54, 2.4, 2},
		{"C", 54, 2.0, 2},
		{"Hailfinder", 56, 1.2, 4},
	}
	for i, wnt := range want {
		bn := nets[i]
		if bn.Name != wnt.name || bn.N() != wnt.n || bn.MaxStates() != wnt.states {
			t.Errorf("%s: n=%d states=%d", bn.Name, bn.N(), bn.MaxStates())
		}
		if math.Abs(bn.EdgesPerNode()-wnt.epn) > 0.1 {
			t.Errorf("%s: edges/node = %v, want ~%v", bn.Name, bn.EdgesPerNode(), wnt.epn)
		}
		if err := bn.Validate(); err != nil {
			t.Errorf("%s: %v", bn.Name, err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random("x", 30, 2.0, 2, 5)
	b := Random("x", 30, 2.0, 2, 5)
	if a.Edges() != b.Edges() {
		t.Fatal("same seed, different structure")
	}
	for i := range a.Nodes {
		for c := range a.Nodes[i].CPT {
			for s := range a.Nodes[i].CPT[c] {
				if a.Nodes[i].CPT[c][s] != b.Nodes[i].CPT[c][s] {
					t.Fatal("same seed, different CPTs")
				}
			}
		}
	}
}

func TestGraphExport(t *testing.T) {
	bn := Figure1()
	g := bn.Graph()
	if g.N() != 5 || g.Edges() != 5 {
		t.Fatalf("graph %d nodes %d edges", g.N(), g.Edges())
	}
}

func TestQueryMatches(t *testing.T) {
	q := Query{Node: 3, State: 1, Evidence: map[int]int{0: 1, 4: 0}}
	if !q.Matches([]int{1, 0, 0, 1, 0}) {
		t.Fatal("should match")
	}
	if q.Matches([]int{0, 0, 0, 1, 0}) {
		t.Fatal("should not match")
	}
	if !(Query{Node: 0, State: 0}).Matches([]int{0}) {
		t.Fatal("empty evidence should always match")
	}
}

func TestDefaultQuery(t *testing.T) {
	bn := Table2Networks()[0]
	q := DefaultQuery(bn)
	if q.Node != bn.N()-1 || len(q.Evidence) != 1 {
		t.Fatalf("query = %+v", q)
	}
	for n := range q.Evidence {
		if n == q.Node {
			t.Fatal("evidence on the query node")
		}
	}
}

func TestExactFigure1(t *testing.T) {
	bn := Figure1()
	// Hand-computed: p(B=t) = p(A=t)*0.7 + p(A=f)*0.1 = 0.22.
	pB := Exact(bn, Query{Node: 1, State: 1})
	if math.Abs(pB-0.22) > 1e-12 {
		t.Fatalf("exact p(B=t) = %v, want 0.22", pB)
	}
	// Conditioning must move the posterior: p(A=t | B=t) =
	// 0.2*0.7/0.22 ~ 0.6364.
	pAgB := Exact(bn, Query{Node: 0, State: 1, Evidence: map[int]int{1: 1}})
	if math.Abs(pAgB-0.2*0.7/0.22) > 1e-12 {
		t.Fatalf("exact p(A=t|B=t) = %v", pAgB)
	}
}

func TestExactTooLargePanics(t *testing.T) {
	bn := Random("big", 54, 2.0, 2, 9)
	defer func() {
		if recover() == nil {
			t.Error("Exact on 2^54 joint did not panic")
		}
	}()
	Exact(bn, Query{Node: 0, State: 0})
}

// Property: sampled marginal of a root matches its CPT within sampling
// error, for random binary roots.
func TestRootMarginalProperty(t *testing.T) {
	f := func(pRaw uint8, seed int64) bool {
		p := 0.05 + 0.9*float64(pRaw)/255
		bn := &Network{Nodes: []Node{{Name: "r", States: 2, CPT: [][]float64{{1 - p, p}}}}}
		l := newLUT(bn, Query{})
		rng := xrand.New(seed)
		vals := make([]int, 1)
		hits := 0
		const n = 4000
		for i := 0; i < n; i++ {
			l.sampleInto(vals, rng)
			hits += vals[0]
		}
		got := float64(hits) / n
		return math.Abs(got-p) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

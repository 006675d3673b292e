package ga

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nscc/internal/ga/functions"
	"nscc/internal/xrand"
)

func testDeme(t *testing.T, fn *functions.Function, seed int64) *Deme {
	t.Helper()
	return newDeme(fn, DeJongParams(), xrand.New(seed))
}

// TestNewDemeSeedsOwnStream pins the exported constructor: it draws one
// Int63 from the caller's math/rand stream and seeds the deme's xrand
// stream with it.
func TestNewDemeSeedsOwnStream(t *testing.T) {
	rng, want := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	a := NewDeme(functions.F1, DeJongParams(), rng)
	b := newDeme(functions.F1, DeJongParams(), xrand.New(want.Int63()))
	for _, d := range []*Deme{a, b} {
		d.EvaluateAll()
		for g := 0; g < 20; g++ {
			d.NextGeneration()
			d.EvaluateAll()
		}
	}
	if a.AvgFit() != b.AvgFit() || a.Best().Fit != b.Best().Fit {
		t.Fatalf("NewDeme diverged from newDeme(xrand.New(rng.Int63())): avg %v vs %v", a.AvgFit(), b.AvgFit())
	}
	if rng.Int63() != want.Int63() {
		t.Fatal("NewDeme drew more than one value from the caller's stream")
	}
}

func TestDeJongParams(t *testing.T) {
	p := DeJongParams()
	if p.N != 50 || p.C != 0.6 || p.M != 0.001 || p.G != 1 || p.W != 1 || !p.Elitist {
		t.Fatalf("DeJong params wrong: %+v", p)
	}
}

func TestNewDemeShape(t *testing.T) {
	d := testDeme(t, functions.F1, 1)
	if d.Size() != 50 {
		t.Fatalf("size %d", d.Size())
	}
	seen0, seen1 := false, false
	for _, ind := range d.pop {
		if !tailClear(&ind.Bits, functions.F1.TotalBits()) {
			t.Fatalf("bits set past the chromosome's %d: %x", functions.F1.TotalBits(), ind.Bits)
		}
		for _, b := range unpack(&ind.Bits, functions.F1.TotalBits()) {
			switch b {
			case 0:
				seen0 = true
			case 1:
				seen1 = true
			}
		}
	}
	if !seen0 || !seen1 {
		t.Fatal("initial population is not random")
	}
}

func TestTinyPopulationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("N=1 deme did not panic")
		}
	}()
	par := DeJongParams()
	par.N = 1
	NewDeme(functions.F1, par, rand.New(rand.NewSource(1)))
}

func TestEvaluateAllCountsAndCaches(t *testing.T) {
	d := testDeme(t, functions.F1, 2)
	if n := d.EvaluateAll(); n != 50 {
		t.Fatalf("first evaluation computed %d, want 50", n)
	}
	if n := d.EvaluateAll(); n != 0 {
		t.Fatalf("re-evaluation computed %d, want 0 (cache)", n)
	}
	d.NextGeneration()
	n := d.EvaluateAll()
	if n == 0 || n > 50 {
		t.Fatalf("after a generation, %d evals; want in (0,50]", n)
	}
	// With C=0.6 and tiny mutation, a noticeable fraction of children
	// are untouched clones whose fitness survives — that's the paper's
	// caching optimization.
	saved := 0
	dd := testDeme(t, functions.F1, 3)
	dd.EvaluateAll()
	for g := 0; g < 20; g++ {
		dd.NextGeneration()
		saved += dd.Size() - dd.EvaluateAll()
	}
	if saved < 20*dd.Size()/10 {
		t.Fatalf("caching saved only %d of %d evaluations", saved, 20*dd.Size())
	}
}

func TestBestBeforeEvaluatePanics(t *testing.T) {
	d := testDeme(t, functions.F1, 1)
	defer func() {
		if recover() == nil {
			t.Error("Best before EvaluateAll did not panic")
		}
	}()
	d.Best()
}

func TestEvolutionImproves(t *testing.T) {
	d := testDeme(t, functions.F1, 4)
	d.EvaluateAll()
	first := d.Best().Fit
	for g := 0; g < 100; g++ {
		d.NextGeneration()
		d.EvaluateAll()
	}
	last := d.Best().Fit
	if last >= first {
		t.Fatalf("no improvement: %v -> %v", first, last)
	}
	if last > 1.0 {
		t.Fatalf("F1 after 100 generations still at %v", last)
	}
}

func TestElitismMonotone(t *testing.T) {
	d := testDeme(t, functions.F6, 5)
	d.EvaluateAll()
	prev := d.Best().Fit
	for g := 0; g < 50; g++ {
		d.NextGeneration()
		d.EvaluateAll()
		cur := d.Best().Fit
		if cur > prev+1e-12 {
			t.Fatalf("best-so-far regressed at gen %d: %v -> %v", g, prev, cur)
		}
		prev = cur
	}
}

func TestGenerationGapKeepsSurvivors(t *testing.T) {
	par := DeJongParams()
	par.G = 0.5
	d := newDeme(functions.F1, par, xrand.New(6))
	d.EvaluateAll()
	bestBefore := d.Best().Fit
	d.NextGeneration()
	// Half the population survives; the best survivor must be present
	// with valid fitness equal or better than before.
	surviving := 0
	for _, ind := range d.pop {
		if ind.Valid && ind.Fit <= bestBefore+1e-12 {
			surviving++
		}
	}
	if surviving == 0 {
		t.Fatal("generation gap 0.5 kept no good survivors")
	}
}

func TestCrossoverSwapsTails(t *testing.T) {
	d := testDeme(t, functions.F1, 7)
	n := functions.F1.TotalBits()
	ones := make([]byte, n)
	for i := range ones {
		ones[i] = 1
	}
	a := Individual{Fit: 1, Valid: true}
	b := Individual{Bits: pack(ones), Fit: 2, Valid: true}
	d.crossover(&a, &b)
	if a.Valid || b.Valid {
		t.Fatal("crossover did not invalidate fitness")
	}
	// Each child must be a prefix of one parent and suffix of the other.
	ab, bb := unpack(&a.Bits, n), unpack(&b.Bits, n)
	point := 0
	for i, bit := range ab {
		if bit == 1 {
			point = i
			break
		}
	}
	if point == 0 {
		t.Fatalf("crossover point at 0 or no swap: %v", ab)
	}
	for i := range ab {
		wantA, wantB := byte(0), byte(1)
		if i >= point {
			wantA, wantB = 1, 0
		}
		if ab[i] != wantA || bb[i] != wantB {
			t.Fatalf("not a single-point crossover: %v %v", ab, bb)
		}
	}
	if !tailClear(&a.Bits, n) || !tailClear(&b.Bits, n) {
		t.Fatalf("crossover set bits past the chromosome: %x %x", a.Bits, b.Bits)
	}
}

func TestMutationRateRoughly(t *testing.T) {
	par := DeJongParams()
	par.M = 0.05
	d := newDeme(functions.F4, par, xrand.New(8))
	flips := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		ind := Individual{Valid: true}
		d.mutate(&ind)
		for _, b := range unpack(&ind.Bits, functions.F4.TotalBits()) {
			flips += int(b)
		}
		if !tailClear(&ind.Bits, functions.F4.TotalBits()) {
			t.Fatalf("mutation flipped bits past the chromosome: %x", ind.Bits)
		}
	}
	total := trials * functions.F4.TotalBits()
	rate := float64(flips) / float64(total)
	if rate < 0.035 || rate > 0.065 {
		t.Fatalf("observed mutation rate %v, want ~0.05", rate)
	}
}

func TestBestKSortedAndCopies(t *testing.T) {
	d := testDeme(t, functions.F1, 9)
	d.EvaluateAll()
	top := d.BestK(10)
	if len(top) != 10 {
		t.Fatalf("BestK returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Fit < top[i-1].Fit {
			t.Fatal("BestK not sorted fittest-first")
		}
	}
	// Mutating the copy must not touch the deme.
	before := top[0].Bits
	top[0].Bits.Flip(0)
	d2 := d.BestK(1)
	if d2[0].Bits != before || d2[0].Fit != top[0].Fit {
		t.Fatalf("flipping a BestK copy changed the deme's fittest individual")
	}
	if d.BestK(100)[0].Fit != d2[0].Fit {
		t.Fatal("BestK(k>N) should clamp and preserve order")
	}
}

func TestReplaceWorst(t *testing.T) {
	d := testDeme(t, functions.F1, 10)
	d.EvaluateAll()
	migrants := []Individual{{Fit: -100, Valid: true}}
	worstBefore := d.BestK(d.Size())[d.Size()-1].Fit
	d.ReplaceWorst(migrants)
	found := false
	for _, ind := range d.pop {
		if ind.Fit == -100 {
			found = true
		}
		if ind.Fit == worstBefore {
			t.Fatal("worst individual survived replacement")
		}
	}
	if !found {
		t.Fatal("migrant not installed")
	}
	if d.Best().Fit != -100 {
		t.Fatal("ReplaceWorst did not refresh best-so-far")
	}
}

func TestReplaceWorstEmptyAndOversized(t *testing.T) {
	d := testDeme(t, functions.F1, 11)
	d.EvaluateAll()
	d.ReplaceWorst(nil) // no-op
	many := make([]Individual, 100)
	for i := range many {
		many[i] = Individual{Fit: 1, Valid: true}
	}
	d.ReplaceWorst(many) // clamped to population size
	if d.Size() != 50 {
		t.Fatalf("population size changed: %d", d.Size())
	}
}

// TestReplaceWorstOverfullKeepsFittest pins the over-full migrant fix:
// when more migrants arrive than the deme holds (gossip fan-in times
// the exchange size can exceed N), ReplaceWorst must install the
// fittest of the pool, not the first len(pop) in arrival order.
func TestReplaceWorstOverfullKeepsFittest(t *testing.T) {
	d := testDeme(t, functions.F1, 13)
	d.EvaluateAll()
	n := d.Size()
	// Fitness strictly improves with arrival position, so arrival-order
	// truncation would keep exactly the wrong half.
	pool := make([]Individual, n+30)
	for i := range pool {
		pool[i] = Individual{Fit: float64(1000 - i), Valid: true}
	}
	d.ReplaceWorst(pool)
	wantWorst := pool[30].Fit // the n fittest are pool[30:]
	for _, ind := range d.pop {
		if ind.Fit > wantWorst {
			t.Fatalf("individual with fit %v survived; over-full merge dropped a fitter migrant (worst kept should be %v)",
				ind.Fit, wantWorst)
		}
	}
	if got := d.CurrentBest(); got != pool[len(pool)-1].Fit {
		t.Fatalf("current best %v, want fittest migrant %v", got, pool[len(pool)-1].Fit)
	}

	// Delivery order must not matter (//nscc:commutative): a deme fed
	// the same pool reversed ends with the same population fitnesses.
	d2 := testDeme(t, functions.F1, 13)
	d2.EvaluateAll()
	rev := make([]Individual, len(pool))
	for i := range pool {
		rev[i] = pool[len(pool)-1-i]
	}
	d2.ReplaceWorst(rev)
	fits := func(d *Deme) []float64 {
		out := make([]float64, 0, d.Size())
		for _, ind := range d.BestK(d.Size()) {
			out = append(out, ind.Fit)
		}
		return out
	}
	a, b := fits(d), fits(d2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("merge not delivery-order-free: rank %d differs (%v vs %v)", i, a[i], b[i])
		}
	}
}

func TestBestOfPool(t *testing.T) {
	pool := []Individual{{Fit: 3}, {Fit: 1}, {Fit: 2}}
	top := bestOfPool(pool, 2)
	if len(top) != 2 || top[0].Fit != 1 || top[1].Fit != 2 {
		t.Fatalf("bestOfPool = %+v", top)
	}
	if got := bestOfPool(pool, 10); len(got) != 3 {
		t.Fatal("bestOfPool should clamp k")
	}
	if pool[0].Fit != 3 {
		t.Fatal("bestOfPool mutated input order")
	}
}

// FuzzPoolViewsMatchFlat holds the migrant sorter, which reads a pool in
// the blocks it arrived in, to a sort of the concatenated pool. data
// decodes to Fit keys two bytes a key (fuzzKey: ties, ±0, NaN and ±Inf
// are common), each individual marked with its pool position; cuts
// gives the block lengths, 0 to 7, and the rest of the pool is the last
// block; k runs from 0 to two past the pool's size. The top k must
// equal, individual for individual and bit for bit, the first k of
// slices.SortFunc over the concatenation with the pinned comparator. One
// sorter takes the blocks, the one-block pool bestOfPool passes, and the
// blocks again.
func FuzzPoolViewsMatchFlat(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 3, 1, 34, 0, 2, 0, 33, 0, 32, 0, 35, 0, 36, 0, 1, 0}, []byte{2, 0, 3, 0, 0, 1}, 4)
	f.Add(make([]byte, 120), []byte{7, 7, 0, 7, 7}, 25)
	f.Add([]byte("migrants arrive fittest first, from sources converging on one optimum"), []byte{5, 5, 5, 5}, 70)
	f.Add([]byte{}, []byte{0, 0}, 1)
	f.Fuzz(func(t *testing.T, data, cuts []byte, k int) {
		n := len(data) / 2
		flat := make([]Individual, n)
		key := make([]float64, n)
		for i := range flat {
			key[i] = fuzzKey(data[2*i], data[2*i+1])
			flat[i] = Individual{Fit: key[i], Valid: i%3 != 0}
			flat[i].Bits[0] = uint64(i)
		}
		var blocks [][]Individual
		rest := flat
		for _, c := range cuts {
			l := min(int(c%8), len(rest))
			blocks = append(blocks, slices.Clone(rest[:l]))
			rest = rest[l:]
		}
		blocks = append(blocks, slices.Clone(rest))
		k = int(uint(k) % uint(n+3))

		order := identity(n)
		slices.SortFunc(order, ascending(key))
		want := order[:min(k, n)]
		var ps poolSorter
		for pass, pool := range [][][]Individual{blocks, {flat}, blocks} {
			got := ps.bestK(pool, k)
			if len(got) != len(want) {
				t.Fatalf("pass %d, %d blocks: k=%d of %d gave %d individuals", pass, len(pool), k, n, len(got))
			}
			for j, i := range want {
				g, w := got[j], flat[i]
				if g.Bits != w.Bits || math.Float64bits(g.Fit) != math.Float64bits(w.Fit) || g.Valid != w.Valid {
					t.Fatalf("pass %d, %d blocks: rank %d is pool position %d (fit %v), want %d (fit %v)",
						pass, len(pool), j, g.Bits[0], g.Fit, i, w.Fit)
				}
			}
		}
	})
}

func TestDemeDeterminism(t *testing.T) {
	run := func(seed int64) float64 {
		d := testDeme(t, functions.F6, seed)
		d.EvaluateAll()
		for g := 0; g < 30; g++ {
			d.NextGeneration()
			d.EvaluateAll()
		}
		return d.Best().Fit
	}
	if run(42) != run(42) {
		t.Fatal("same seed diverged")
	}
	if run(42) == run(43) {
		t.Fatal("different seeds identical")
	}
}

// Property: a generation step preserves population size, leaves the
// bits past the chromosome clear, and scaled weights are non-negative.
func TestGenerationInvariants(t *testing.T) {
	f := func(seed int64, fnRaw uint8) bool {
		fn := functions.ByNo(int(fnRaw%8) + 1)
		par := DeJongParams()
		par.N = 20
		d := newDeme(fn, par, xrand.New(seed))
		d.EvaluateAll()
		for g := 0; g < 5; g++ {
			prev := 0.0
			for _, c := range d.scaledCum() {
				if c < prev { // prefix sums of non-negative weights
					return false
				}
				prev = c
			}
			d.NextGeneration()
			d.EvaluateAll()
			if d.Size() != 20 {
				return false
			}
			for _, ind := range d.pop {
				if !tailClear(&ind.Bits, fn.TotalBits()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// TestWorstWindowSteadyMemory is the regression test for the
// unbounded worst-of-generation history: the scaling window is a
// preallocated W-slot ring, so a 10k-generation run must hold steady
// memory — the ring never grows and the steady-state generation loop
// allocates nothing.
func TestWorstWindowSteadyMemory(t *testing.T) {
	d := testDeme(t, functions.F1, 13)
	d.EvaluateAll()
	capBefore := d.worstWindowCap()
	for g := 0; g < 10_000; g++ {
		d.NextGeneration()
		d.EvaluateAll()
	}
	if got := d.worstWindowCap(); got != capBefore {
		t.Fatalf("worst-window ring grew: cap %d -> %d over 10k generations", capBefore, got)
	}
	w := d.Par.W
	if w < 1 {
		w = 1
	}
	if got := d.worstWindowCap(); got != w {
		t.Fatalf("worst-window ring cap %d, want the configured window %d", got, w)
	}
	// The generation loop itself must be allocation-free once warm.
	allocs := testing.AllocsPerRun(50, func() {
		d.NextGeneration()
		d.EvaluateAll()
	})
	if allocs > 0 {
		t.Fatalf("steady-state generation loop allocates %.1f objects/gen, want 0", allocs)
	}
}

func TestGrayDemeConverges(t *testing.T) {
	par := DeJongParams()
	par.Gray = true
	d := newDeme(functions.F1, par, xrand.New(21))
	d.EvaluateAll()
	for g := 0; g < 100; g++ {
		d.NextGeneration()
		d.EvaluateAll()
	}
	if best := d.Best().Fit; best > 1.0 {
		t.Fatalf("gray-coded F1 after 100 generations still at %v", best)
	}
}

// cumOf accumulates weights into prefix sums as scaledCum does: a
// negative weight counts as 0, and a NaN one makes every later sum NaN.
func cumOf(weights []float64) []float64 {
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		sum += w
		cum[i] = sum
	}
	return cum
}

// guideMatchesSearch spins a guide table over weights and rouletteIndex
// on twin streams, draws times, and fails at the first index or later
// draw that differs. For a table in use it also holds find to the
// binary search at every point where their answers could part: each
// prefix sum and bucket threshold and the floats beside them, 0 and the
// total. It reports whether the table was in use.
func guideMatchesSearch(t *testing.T, name string, weights []float64, seed int64, draws int) bool {
	t.Helper()
	cum := cumOf(weights)
	w := newRoulette(len(cum))
	w.build(cum)
	total := cum[len(cum)-1]
	a, b := xrand.New(seed), xrand.New(seed)
	for k := 0; k < draws; k++ {
		if gi, si := w.spin(a), rouletteIndex(cum, total, b); gi != si {
			t.Fatalf("%s: draw %d: guide picked %d, search %d (total %v)", name, k, gi, si, total)
		}
	}
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Fatalf("%s: the streams parted after %d draws: %d, search %d", name, draws, x, y)
	}
	if w.scale == 0 {
		return false
	}
	vals := []float64{0, total}
	for i, v := range cum {
		vals = append(vals, v, w.buckets[i].thr)
	}
	for _, v := range vals {
		for _, r := range []float64{v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1))} {
			if !(r >= 0 && r <= total) {
				continue
			}
			if gi, si := w.find(r), searchCum(cum, r); gi != si {
				t.Fatalf("%s: point %v: guide found %d, search %d (total %v)", name, r, gi, si, total)
			}
		}
	}
	return true
}

// TestRouletteGuideMatchesSearch holds the guide table to the binary
// search it replaced, draw for draw, over weight vectors at N = 1, 2, 3,
// the island deme's 50, 64 and the serial baseline's 800: zero weights,
// a single nonzero weight, equal weights, random weights with runs of
// zeros, a few giants among tiny weights, a tiny total, one whose
// bucket width total/N is subnormal, a near-overflow one, and the
// totals the table leaves to the search (zero, +Inf, NaN, and a
// subnormal one whose N/total overflows).
func TestRouletteGuideMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int, f func(i int) float64) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = f(i)
		}
		return ws
	}
	// at is a weight vector of zeros but for v at index k.
	at := func(n, k int, v float64) []float64 {
		ws := make([]float64, n)
		ws[k] = v
		return ws
	}
	for _, n := range []int{1, 2, 3, 50, 64, 800} {
		ones := fill(n, func(int) float64 { return 1 })
		cases := []struct {
			name    string
			weights []float64
			guided  bool // the table serves this total
		}{
			{"zero", fill(n, func(int) float64 { return 0 }), false},
			{"negative", fill(n, func(int) float64 { return -1 }), false},
			{"single-first", at(n, 0, 1), true},
			{"single-middle", at(n, n/2, 3), true},
			{"single-last", at(n, n-1, 0.1), true},
			{"equal", ones, true},
			{"equal-thirds", fill(n, func(int) float64 { return 1.0 / 3 }), true},
			{"random", fill(n, func(int) float64 { return rng.Float64() }), true},
			{"random-zero-runs", fill(n, func(i int) float64 {
				if i/4%3 == 1 {
					return 0
				}
				return rng.ExpFloat64()
			}), true},
			{"giants", fill(n, func(i int) float64 {
				if i%17 == 5 {
					return 1e12 * rng.Float64()
				}
				return 1e-9 * rng.Float64()
			}), true},
			{"tiny-normal", fill(n, func(int) float64 { return 1e-300 * (1 + rng.Float64()) }), true},
			{"subnormal-buckets", fill(n, func(int) float64 { return 0x1p-1023 * (1 + rng.Float64()) }), true},
			{"subnormal", fill(n, func(i int) float64 { return math.SmallestNonzeroFloat64 * float64(1+i%3) }), false},
			{"near-overflow", fill(n, func(int) float64 { return math.MaxFloat64 / float64(2*n) * (1 + rng.Float64()) }), true},
			{"overflowing-sum", fill(n, func(int) float64 { return math.MaxFloat64 / 1.5 }), n == 1},
			{"inf", append(ones[:n-1:n-1], math.Inf(1)), false},
			{"nan", append(append(ones[:n/2:n/2], math.NaN()), ones[n/2+1:]...), false},
		}
		for ci, c := range cases {
			name := fmt.Sprintf("N=%d/%s", n, c.name)
			if guided := guideMatchesSearch(t, name, c.weights, int64(100*n+ci), 4000); guided != c.guided {
				t.Errorf("%s: guide table in use %v, want %v", name, guided, c.guided)
			}
		}
	}
}

// FuzzRouletteGuide builds weights from bytes and holds the guide table
// to the binary search on twin streams. An even first byte reads each
// later byte as a small weight scaled by 2^e, with e picked by the
// second byte from subnormal to overflowing magnitudes; an odd one
// reads the rest as raw float64 bits, NaN and the infinities included.
func FuzzRouletteGuide(f *testing.F) {
	f.Add(int64(1), []byte{0, 128, 1, 2, 3, 0, 0, 9})
	f.Add(int64(2), []byte{0, 0, 255, 255, 1})
	f.Add(int64(3), []byte{0, 255, 7, 7, 7, 7})
	f.Add(int64(4), []byte{1, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 {
			return
		}
		var weights []float64
		if data[0]&1 == 0 {
			e := int(data[1])*9 - 1100
			for _, b := range data[2:] {
				weights = append(weights, math.Ldexp(float64(b), e))
			}
		} else {
			for rest := data[1:]; len(rest) >= 8; rest = rest[8:] {
				weights = append(weights, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
			}
		}
		if len(weights) == 0 || len(weights) > 1024 {
			return
		}
		guideMatchesSearch(t, fmt.Sprintf("%v", weights), weights, seed, 64)
	})
}

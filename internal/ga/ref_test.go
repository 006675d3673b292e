package ga

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"nscc/internal/ga/functions"
	"nscc/internal/xrand"
)

// This file keeps the byte-per-bit GA that packed chromosomes replaced,
// as the reference the packed deme is held to: one byte per bit behind
// a slice header, a bit arena per population, the multiply-pack
// decoder, an element-wise crossover and mutation by one Float64() < M
// test per bit. Only the names changed (a ref prefix), and two things
// it cannot reach from this package: xrand's register, so mutation
// makes its per-bit tests one draw at a time (the draws xrand's
// FlipBelow makes in blocks), and the F6/F7 term tables, so every
// function evaluates through its formula, which the tables equal bit
// for bit (functions' TestTermTablesMatchFormula). Selection, the top-k
// sorts and the scaling window are the package's own, unchanged code.

// unpack returns the first n bits of c, one byte each, by the layout
// the functions package documents: bit i is bit 63-i%64 of word i/64.
func unpack(c *functions.Chrom, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(c[i/64] >> (63 - uint(i)%64) & 1)
	}
	return bits
}

// pack is unpack's inverse.
func pack(bits []byte) functions.Chrom {
	var c functions.Chrom
	for i, b := range bits {
		c[i/64] |= uint64(b&1) << (63 - uint(i)%64)
	}
	return c
}

// tailClear reports whether c has no bit set at or past bit n.
func tailClear(c *functions.Chrom, n int) bool {
	return pack(unpack(c, n)) == *c
}

type refIndividual struct {
	Bits  []byte  // one byte per bit, 0 or 1
	Fit   float64 // objective value (valid only if Valid)
	Valid bool
}

func (ind refIndividual) Clone() refIndividual {
	b := make([]byte, len(ind.Bits))
	copy(b, ind.Bits)
	return refIndividual{Bits: b, Fit: ind.Fit, Valid: ind.Valid}
}

type refDeme struct {
	Fn  *functions.Function
	Par Params
	rng *xrand.Rand

	mutThr int64

	pop  []refIndividual
	next []refIndividual
	gen  int64

	worstW []float64
	worstN int
	worstI int

	best    refIndividual
	bestSet bool
	scratch refIndividual

	ws   []float64
	idx  []int
	key  []float64
	xbuf []float64

	evals int64
}

func newRefPopulation(n, bits int) []refIndividual {
	arena := make([]byte, n*bits)
	pop := make([]refIndividual, n)
	for i := range pop {
		pop[i].Bits = arena[i*bits : (i+1)*bits : (i+1)*bits]
	}
	return pop
}

func newRefDeme(fn *functions.Function, par Params, rng *xrand.Rand) *refDeme {
	if par.N < 2 {
		panic("ga: population must have at least 2 individuals")
	}
	d := &refDeme{Fn: fn, Par: par, rng: rng, mutThr: xrand.Threshold(par.M)}
	bits := fn.TotalBits()
	d.pop = newRefPopulation(par.N, bits)
	d.next = newRefPopulation(par.N, bits)
	for i := range d.pop {
		for b := range d.pop[i].Bits {
			d.pop[i].Bits[b] = byte(rng.Intn(2))
		}
	}
	w := par.W
	if w < 1 {
		w = 1
	}
	d.worstW = make([]float64, w)
	d.ws = make([]float64, par.N)
	d.idx = make([]int, par.N)
	d.key = make([]float64, par.N)
	d.xbuf = make([]float64, fn.Vars)
	d.best.Bits = make([]byte, bits)
	d.scratch.Bits = make([]byte, bits)
	return d
}

func refCopyInto(dst, src *refIndividual) {
	copy(dst.Bits, src.Bits)
	dst.Fit = src.Fit
	dst.Valid = src.Valid
}

// refCode reads one variable's bits most-significant-first as a plain
// binary integer, Gray-decoded if gray is set: eight 0/1 bytes at once
// by a carry-free multiply, the remainder singly.
func refCode(seg []byte, gray bool) uint64 {
	var v uint64
	for ; len(seg) >= 8; seg = seg[8:] {
		v = v<<8 | binary.BigEndian.Uint64(seg)*0x0102040810204080>>56
	}
	for _, bit := range seg {
		v = v<<1 | uint64(bit)
	}
	if gray {
		v = functions.GrayToBinary(v)
	}
	return v
}

// refEvalBits decodes a byte chromosome into scratch and evaluates the
// formula there.
func refEvalBits(f *functions.Function, scratch []float64, bits []byte, gray bool, rng *xrand.Rand) float64 {
	if len(bits) != f.TotalBits() {
		panic(fmt.Sprintf("functions: F%d wants %d bits, got %d", f.No, f.TotalBits(), len(bits)))
	}
	maxv, bpv := float64(uint64(1)<<uint(f.BitsPerVar)-1), f.BitsPerVar
	for i := 0; i < f.Vars; i++ {
		scratch[i] = f.Lo + float64(refCode(bits[i*bpv:(i+1)*bpv], gray))*(f.Hi-f.Lo)/maxv
	}
	return f.Eval(scratch, rng)
}

func (d *refDeme) EvaluateAll() int {
	n := 0
	for i := range d.pop {
		if !d.pop[i].Valid {
			d.pop[i].Fit = refEvalBits(d.Fn, d.xbuf, d.pop[i].Bits, d.Par.Gray, d.rng)
			d.pop[i].Valid = true
			n++
		}
	}
	d.evals += int64(n)
	d.trackBest()
	d.pushWorst()
	return n
}

func (d *refDeme) trackBest() {
	for i := range d.pop {
		if !d.bestSet || d.pop[i].Fit < d.best.Fit {
			refCopyInto(&d.best, &d.pop[i])
			d.bestSet = true
		}
	}
}

func (d *refDeme) pushWorst() {
	worst := d.pop[0].Fit
	for i := range d.pop {
		if d.pop[i].Fit > worst {
			worst = d.pop[i].Fit
		}
	}
	d.worstW[d.worstI] = worst
	d.worstI = (d.worstI + 1) % len(d.worstW)
	if d.worstN < len(d.worstW) {
		d.worstN++
	}
}

func (d *refDeme) Best() refIndividual {
	if !d.bestSet {
		panic("ga: Best before EvaluateAll")
	}
	return d.best.Clone()
}

func (d *refDeme) scaledCum() []float64 {
	baseline := d.worstW[0]
	for _, w := range d.worstW[:d.worstN] {
		if w > baseline {
			baseline = w
		}
	}
	cum := d.ws[:len(d.pop)]
	sum := 0.0
	for i := range d.pop {
		w := baseline - d.pop[i].Fit
		if w < 0 {
			w = 0
		}
		sum += w
		cum[i] = sum
	}
	return cum
}

func (d *refDeme) NextGeneration() {
	cum := d.scaledCum()
	total := 0.0
	if len(cum) > 0 {
		total = cum[len(cum)-1]
	}

	n := len(d.pop)
	replace := n
	if d.Par.G < 1 {
		replace = int(d.Par.G * float64(n))
		if replace < 2 {
			replace = 2
		}
	}
	next := d.next
	filled := 0
	if replace < n {
		idx := d.sortedByFitness(n - replace)
		for _, i := range idx[:n-replace] {
			refCopyInto(&next[filled], &d.pop[i])
			filled++
		}
	}

	for filled < n {
		c1 := &next[filled]
		c2 := &d.scratch
		if filled+1 < n {
			c2 = &next[filled+1]
		}
		refCopyInto(c1, &d.pop[rouletteIndex(cum, total, d.rng)])
		refCopyInto(c2, &d.pop[rouletteIndex(cum, total, d.rng)])
		if d.rng.Float64() < d.Par.C {
			refCrossover(c1, c2, d.rng)
		}
		d.mutate(c1)
		d.mutate(c2)
		filled += 2
	}

	if d.Par.Elitist && d.bestSet {
		refCopyInto(&next[d.rng.Intn(n)], &d.best)
	}
	d.pop, d.next = next, d.pop
	d.gen++
}

func (d *refDeme) sortedByFitness(head int) []int {
	idx, key := d.idx[:len(d.pop)], d.key[:len(d.pop)]
	for i := range idx {
		idx[i] = i
		key[i] = d.pop[i].Fit
	}
	sortIdx(idx, key, head)
	return idx
}

func refCrossover(a, b *refIndividual, rng *xrand.Rand) {
	if len(a.Bits) != len(b.Bits) {
		panic("ga: crossover length mismatch")
	}
	if len(a.Bits) < 2 {
		return
	}
	point := 1 + rng.Intn(len(a.Bits)-1)
	for i := point; i < len(a.Bits); i++ {
		a.Bits[i], b.Bits[i] = b.Bits[i], a.Bits[i]
	}
	a.Valid = false
	b.Valid = false
}

// refFlipBelow flips each bit for which Float64() < p holds, t =
// Threshold(p), one draw per bit and another per resample.
func refFlipBelow(r *xrand.Rand, bits []byte, t int64) int {
	flips := 0
	for i := range bits {
		for {
			if v := r.Int63(); v < xrand.Resample {
				if v < t {
					bits[i] ^= 1
					flips++
				}
				break
			}
		}
	}
	return flips
}

func (d *refDeme) mutate(ind *refIndividual) {
	if refFlipBelow(d.rng, ind.Bits, d.mutThr) > 0 {
		ind.Valid = false
	}
}

func (d *refDeme) BestK(k int) []refIndividual {
	if k > len(d.pop) {
		k = len(d.pop)
	}
	idx := d.sortedByFitness(k)
	bits := d.Fn.TotalBits()
	out := newRefPopulation(k, bits)
	for j, i := range idx[:k] {
		refCopyInto(&out[j], &d.pop[i])
	}
	return out
}

func (d *refDeme) ReplaceWorst(migrants []refIndividual) {
	if len(migrants) == 0 {
		return
	}
	if len(migrants) > len(d.pop) {
		var ps refPoolSorter
		migrants = ps.bestK(migrants, len(d.pop))
	}
	idx, key := d.idx[:len(d.pop)], d.key[:len(d.pop)]
	for i := range idx {
		idx[i] = i
		key[i] = -d.pop[i].Fit
	}
	sortIdx(idx, key, len(migrants))
	for i := range migrants {
		m := &migrants[i]
		if len(m.Bits) != d.Fn.TotalBits() {
			panic(fmt.Sprintf("ga: migrant has %d bits, deme wants %d", len(m.Bits), d.Fn.TotalBits()))
		}
		refCopyInto(&d.pop[idx[i]], m)
	}
	d.trackBest()
}

type refPoolSorter struct {
	idx []int
	key []float64
	top []refIndividual
}

func (ps *refPoolSorter) bestK(pool []refIndividual, k int) []refIndividual {
	if cap(ps.idx) < len(pool) {
		ps.idx = make([]int, len(pool))
		ps.key = make([]float64, len(pool))
	}
	if k > len(pool) {
		k = len(pool)
	}
	idx, key := ps.idx[:len(pool)], ps.key[:len(pool)]
	for i := range pool {
		idx[i] = i
		key[i] = pool[i].Fit
	}
	sortIdx(idx, key, k)
	top := ps.top[:0]
	for _, i := range idx[:k] {
		top = append(top, pool[i])
	}
	ps.top = top
	return top
}

// sameIndividual reports whether a packed individual equals a byte one:
// the same bits (none set past the chromosome), the same Fit bits and
// the same Valid.
func sameIndividual(p *Individual, r *refIndividual) bool {
	return string(unpack(&p.Bits, len(r.Bits))) == string(r.Bits) && tailClear(&p.Bits, len(r.Bits)) &&
		math.Float64bits(p.Fit) == math.Float64bits(r.Fit) && p.Valid == r.Valid
}

// twin is a packed deme and its byte reference, started from twin
// generators of one seed. The packed deme works in sc; the reference
// keeps buffers of its own.
type twin struct {
	d *Deme
	r *refDeme
}

func newTwin(sc *demeScratch, fn *functions.Function, par Params, seed int64) twin {
	return twin{newDemeOn(sc, fn, par, xrand.New(seed)), newRefDeme(fn, par, xrand.New(seed))}
}

// check compares the two demes' whole state and their generators' next
// draw, which both then spend.
func (tw twin) check(t testing.TB, at string) {
	t.Helper()
	d, r := tw.d, tw.r
	if d.Gen() != r.gen || d.Evals() != r.evals {
		t.Fatalf("%s: gen %d evals %d, reference gen %d evals %d", at, d.Gen(), d.Evals(), r.gen, r.evals)
	}
	if len(d.pop) != len(r.pop) {
		t.Fatalf("%s: %d individuals, reference %d", at, len(d.pop), len(r.pop))
	}
	for i := range d.pop {
		if !sameIndividual(&d.pop[i], &r.pop[i]) {
			t.Fatalf("%s: individual %d is %v fit %v valid %v, reference %v fit %v valid %v", at, i,
				unpack(&d.pop[i].Bits, len(r.pop[i].Bits)), d.pop[i].Fit, d.pop[i].Valid,
				r.pop[i].Bits, r.pop[i].Fit, r.pop[i].Valid)
		}
	}
	if d.bestSet != r.bestSet || d.bestSet && !sameIndividual(&d.best, &r.best) {
		t.Fatalf("%s: best-so-far differs from the reference's", at)
	}
	if d.worstN != r.worstN || d.worstI != r.worstI {
		t.Fatalf("%s: scaling window at %d/%d, reference %d/%d", at, d.worstN, d.worstI, r.worstN, r.worstI)
	}
	for i := range d.worstW {
		if math.Float64bits(d.worstW[i]) != math.Float64bits(r.worstW[i]) {
			t.Fatalf("%s: scaling window slot %d is %v, reference %v", at, i, d.worstW[i], r.worstW[i])
		}
	}
	if a, b := d.rng.Int63(), r.rng.Int63(); a != b {
		t.Fatalf("%s: next draw %d, reference %d", at, a, b)
	}
}

// refRun is one differential scenario: a deme under Par on Fn, run for
// Gens generations beside two donor demes. The three packed demes share
// one scratch and take their generations in turn, as a run's islands
// do. Each generation after the first, when K > 0, the main deme takes
// migrants the island runner's way: the pool sorter's top K over the
// three demes' BestK(K) blocks, read in place (a pool of up to 3N,
// which may exceed N; the reference sorts the concatenated pool), and
// then that whole pool at once, so ReplaceWorst also sorts an over-full
// pool itself.
type refRun struct {
	Fn   *functions.Function
	Par  Params
	Gens int
	K    int
	Seed int64
}

func (rr refRun) run(t testing.TB) {
	t.Helper()
	sc := newDemeScratch(rr.Fn, rr.Par)
	main := newTwin(sc, rr.Fn, rr.Par, rr.Seed)
	donors := []twin{newTwin(sc, rr.Fn, rr.Par, rr.Seed+1), newTwin(sc, rr.Fn, rr.Par, rr.Seed+2)}
	all := append([]twin{main}, donors...)
	var ps poolSorter
	var rps refPoolSorter
	for g := 0; g < rr.Gens; g++ {
		for j, tw := range all {
			if n, m := tw.d.EvaluateAll(), tw.r.EvaluateAll(); n != m {
				t.Fatalf("gen %d deme %d: EvaluateAll computed %d, reference %d", g, j, n, m)
			}
			tw.check(t, fmt.Sprintf("gen %d deme %d evaluated", g, j))
		}
		if b, rb := main.d.Best(), main.r.Best(); !sameIndividual(&b, &rb) {
			t.Fatalf("gen %d: Best differs from the reference's", g)
		}
		if rr.K > 0 && g > 0 {
			var blocks [][]Individual
			var pool []Individual
			var rpool []refIndividual
			for _, tw := range all {
				b := tw.d.BestK(rr.K)
				blocks = append(blocks, b)
				pool = append(pool, b...)
				rpool = append(rpool, tw.r.BestK(rr.K)...)
			}
			main.d.ReplaceWorst(ps.bestK(blocks, rr.K))
			main.r.ReplaceWorst(rps.bestK(rpool, rr.K))
			main.check(t, fmt.Sprintf("gen %d top-k migrants", g))
			main.d.ReplaceWorst(pool)
			main.r.ReplaceWorst(rpool)
			main.check(t, fmt.Sprintf("gen %d pool of %d migrants", g, len(pool)))
		}
		for j, tw := range all {
			tw.d.NextGeneration()
			tw.r.NextGeneration()
			tw.check(t, fmt.Sprintf("gen %d deme %d bred", g, j))
		}
	}
}

// refVariants are the parameter settings the differential test runs
// each function and encoding under: DeJong's, and every path no golden
// sweep reaches (survivors under a generation gap, including the
// two-child floor, odd N with its discarded second child, selection
// without elitism, a scaling window over several generations, mutation
// at 0, 0.5 and 1, and crossover never and always).
var refVariants = []struct {
	name string
	edit func(*Params)
}{
	{"dejong", func(*Params) {}},
	{"gap-0.5", func(p *Params) { p.G = 0.5 }},
	{"gap-floor", func(p *Params) { p.G = 0.01; p.N = 9 }},
	{"odd-n", func(p *Params) { p.N = 7 }},
	{"n-2", func(p *Params) { p.N = 2 }},
	{"no-elitism", func(p *Params) { p.Elitist = false }},
	{"window-4", func(p *Params) { p.W = 4 }},
	{"m-0", func(p *Params) { p.M = 0 }},
	{"m-0.5", func(p *Params) { p.M = 0.5 }},
	{"m-1", func(p *Params) { p.M = 1; p.N = 11 }},
	{"c-0", func(p *Params) { p.C = 0 }},
	{"c-1", func(p *Params) { p.C = 1; p.G = 0.7; p.W = 2 }},
}

// TestDemeMatchesReference holds the packed deme to the byte-per-bit
// reference generation by generation, on all eight functions, plain and
// Gray, under every variant.
func TestDemeMatchesReference(t *testing.T) {
	gens := 12
	if testing.Short() {
		gens = 4
	}
	for _, fn := range functions.All() {
		for _, gray := range []bool{false, true} {
			for vi, v := range refVariants {
				par := DeJongParams()
				par.Gray = gray
				v.edit(&par)
				t.Run(fmt.Sprintf("F%d/gray=%v/%s", fn.No, gray, v.name), func(t *testing.T) {
					refRun{Fn: fn, Par: par, Gens: gens, K: par.N/2 + vi%3, Seed: int64(100*fn.No + vi)}.run(t)
				})
			}
		}
	}
}

// fuzzProbs are the mutation and crossover rates the fuzzer picks from.
var fuzzProbs = []float64{0, 0.001, 0.01, 0.5, 0.6, 1}

// FuzzDemeMatchesReference drives the differential test with arbitrary
// settings: cfg picks the function, encoding, elitism, N, G, W, M, C,
// the generation count and the migrant count.
func FuzzDemeMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 48, 100, 0, 1, 4, 11, 25})
	f.Add(int64(2), []byte{3, 1, 5, 50, 3, 5, 5, 7, 60})
	f.Add(int64(3), []byte{5, 2, 0, 1, 1, 0, 0, 9, 0})
	f.Add(int64(4), []byte{7, 3, 13, 20, 2, 3, 3, 5, 100})
	f.Fuzz(func(t *testing.T, seed int64, cfg []byte) {
		at := func(i int) int {
			if i < len(cfg) {
				return int(cfg[i])
			}
			return 0
		}
		par := Params{
			N:       2 + at(2)%62,
			G:       float64(at(3)%101) / 100,
			W:       at(4) % 6,
			M:       fuzzProbs[at(5)%len(fuzzProbs)],
			C:       fuzzProbs[at(6)%len(fuzzProbs)],
			Elitist: at(1)&2 == 0,
			Gray:    at(1)&1 == 1,
		}
		if par.G == 0 {
			par.G = 1
		}
		refRun{
			Fn: functions.ByNo(at(0)%8 + 1), Par: par,
			Gens: 1 + at(7)%10, K: at(8) % (2*par.N + 1), Seed: seed,
		}.run(t)
	})
}

// Package ga implements the paper's genetic-algorithm workload: a
// generational GA with DeJong's parameter settings (§4.2.1: N=50, C=0.6,
// M=0.001, G=1, W=1, elitist selection), a serial runner with the
// fitness-caching optimization the paper applies to its sequential
// baselines, and the coarse-grained "island" parallel GA in its
// synchronous, fully asynchronous and Global_Read-controlled variants.
//
// A chromosome is a functions.Chrom, packed bits in a pointer-free
// value whose layout the functions package alone defines: this package
// only sets, flips and swaps bits through it. An Individual is
// therefore copied by assignment, and a population or a migrant block
// is one allocation the garbage collector never scans.
// internal/ga/ref_test.go keeps the byte-per-bit GA this replaced and
// holds the deme to it, draw for draw.
package ga

import (
	"math"
	"math/rand"
	"sort"

	"nscc/internal/ga/functions"
	"nscc/internal/xrand"
)

// Params are the six GA parameters of §4.2.1.
type Params struct {
	N       int     // population (deme) size
	C       float64 // crossover rate
	M       float64 // per-bit mutation rate
	G       float64 // generation gap (1 = full generational replacement)
	W       int     // scaling window (generations of worst-value history)
	Elitist bool    // S=E: best individual survives unchanged
	Gray    bool    // interpret chromosomes as reflected Gray code
}

// DeJongParams returns the paper's settings: N=50, C=0.6, M=0.001, G=1,
// W=1, S=E.
func DeJongParams() Params {
	return Params{N: 50, C: 0.6, M: 0.001, G: 1, W: 1, Elitist: true}
}

// Individual is one chromosome with its cached objective value. The GA
// minimizes Fit. It holds no pointers: assigning one copies it, and a
// slice of them is one allocation the garbage collector never scans.
type Individual struct {
	Bits  functions.Chrom // packed bits; the function's layout
	Fit   float64         // objective value (valid only if Valid)
	Valid bool
}

// Deme is one subpopulation evolving under a Params setting. All
// randomness comes from the supplied rng, so demes are deterministic.
//
// A deme holds only what lasts from one call to the next: its
// population, its best-so-far, its scaling window, its generator and
// its counters. Everything a call builds and drops, the next generation
// included, lives in a demeScratch, which demes of one function and
// Params may share: no method keeps anything there past its return, and
// no method yields to the simulation engine, which runs one process at a
// time. RunIsland gives one scratch to all of its islands; NewDeme and
// the serial runner give each deme its own.
type Deme struct {
	Fn  *functions.Function
	Par Params
	rng *xrand.Rand

	// mutThr is Par.M (as of construction) as an xrand.Threshold: a bit
	// flips when its draw is below it, exactly when Float64() < Par.M
	// would hold.
	mutThr int64

	pop []Individual
	gen int64

	// worstW is a ring of the worst raw objective of the last W
	// generations (preallocated; worstN entries are live, worstI is the
	// next write slot).
	worstW []float64
	worstN int
	worstI int

	best    Individual
	bestSet bool

	sc *demeScratch

	evals int64 // total objective evaluations computed (cache misses)
}

// demeScratch is the working storage of deme calls, sized for one
// function and Params. A call fills what it reads before reading it, so
// any deme of that function and Params can use it next.
type demeScratch struct {
	next  []Individual // NextGeneration's build buffer
	spare Individual   // discarded second child of an odd last pair
	ws    []float64    // selection-weight prefix sums
	wheel roulette     // the guide table over ws
	idx   []int        // index-sort permutation
	key   []float64    // sort keys of idx
	xbuf  []float64    // objective decode buffer
	flips []int        // mutation's flip positions
}

// newDemeScratch allocates the scratch of demes of par.N individuals on
// fn.
func newDemeScratch(fn *functions.Function, par Params) *demeScratch {
	if par.N < 2 {
		panic("ga: population must have at least 2 individuals")
	}
	return &demeScratch{
		next:  make([]Individual, par.N),
		ws:    make([]float64, par.N),
		wheel: newRoulette(par.N),
		idx:   make([]int, par.N),
		key:   make([]float64, par.N),
		xbuf:  make([]float64, fn.Vars),
		flips: make([]int, 0, fn.TotalBits()),
	}
}

// NewDeme creates a deme of Par.N random individuals. The deme draws
// from its own stream, seeded by one rng.Int63().
func NewDeme(fn *functions.Function, par Params, rng *rand.Rand) *Deme {
	return newDeme(fn, par, xrand.New(rng.Int63()))
}

// newDeme creates a deme drawing from rng, with a scratch of its own.
// The serial runner shares rng with its jitterer, so the two interleave
// on one stream.
func newDeme(fn *functions.Function, par Params, rng *xrand.Rand) *Deme {
	return newDemeOn(newDemeScratch(fn, par), fn, par, rng)
}

// newDemeOn creates a deme drawing from rng that works in sc, which
// newDemeScratch made for fn and par. The island runner shares rng with
// the node's jitterer, and sc with every island of the run.
func newDemeOn(sc *demeScratch, fn *functions.Function, par Params, rng *xrand.Rand) *Deme {
	d := &Deme{Fn: fn, Par: par, rng: rng, mutThr: xrand.Threshold(par.M), sc: sc}
	bits := fn.TotalBits()
	d.pop = make([]Individual, par.N)
	for i := range d.pop {
		for b := 0; b < bits; b++ {
			d.pop[i].Bits.SetBit(b, uint(rng.Intn(2)))
		}
	}
	w := par.W
	if w < 1 {
		w = 1
	}
	d.worstW = make([]float64, w)
	return d
}

// Gen returns the number of completed generations.
func (d *Deme) Gen() int64 { return d.gen }

// Evals returns the cumulative number of objective evaluations actually
// computed (fitness-cache misses).
func (d *Deme) Evals() int64 { return d.evals }

// Size returns the deme population size.
func (d *Deme) Size() int { return len(d.pop) }

// EvaluateAll computes objective values for individuals whose cache is
// invalid and returns how many evaluations that took. This is the
// paper's "software caching technique to reduce the recomputation of
// fitness values of surviving individuals" [19]: clones that passed
// through selection without crossover or mutation keep their value.
func (d *Deme) EvaluateAll() int {
	n := 0
	for i := range d.pop {
		if !d.pop[i].Valid {
			d.pop[i].Fit = d.Fn.EvalBitsInto(d.sc.xbuf, &d.pop[i].Bits, d.Par.Gray, d.rng)
			d.pop[i].Valid = true
			n++
		}
	}
	d.evals += int64(n)
	d.trackBest()
	d.pushWorst()
	return n
}

func (d *Deme) trackBest() {
	for i := range d.pop {
		if !d.bestSet || d.pop[i].Fit < d.best.Fit {
			d.best = d.pop[i]
			d.bestSet = true
		}
	}
}

// pushWorst records the generation's worst raw objective in the
// fixed-size scaling-window ring: W slots, overwritten in rotation, so
// an arbitrarily long run holds steady memory.
func (d *Deme) pushWorst() {
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

// worstWindowCap exposes the scaling-window ring's capacity to tests.
func (d *Deme) worstWindowCap() int { return cap(d.worstW) }

// Best returns the best individual found so far. EvaluateAll must have
// run at least once.
func (d *Deme) Best() Individual {
	if !d.bestSet {
		panic("ga: Best before EvaluateAll")
	}
	return d.best
}

// CurrentBest returns the best objective value in the *current*
// population (as opposed to Best, the best ever seen). Convergence
// checks use this: "the subpopulation converged further" (§5.1.1) is a
// property of the population, not of history.
func (d *Deme) CurrentBest() float64 {
	best := math.Inf(1)
	for i := range d.pop {
		if d.pop[i].Valid && d.pop[i].Fit < best {
			best = d.pop[i].Fit
		}
	}
	return best
}

// AvgFit returns the population's mean objective value (current,
// evaluated members only).
func (d *Deme) AvgFit() float64 {
	s, n := 0.0, 0
	for i := range d.pop {
		if d.pop[i].Valid {
			s += d.pop[i].Fit
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// scaledCum converts the minimization objective into selection-weight
// prefix sums using DeJong's scaling-window rule: weight = baseline -
// f, where baseline is the worst raw objective seen in the last W
// generations. The returned slice (the scratch's prefix sums) holds
// running left-to-right sums, accumulated in the same order the old
// per-weight total was, so the grand total is bit-identical.
func (d *Deme) scaledCum() []float64 {
	baseline := d.worstW[0]
	for _, w := range d.worstW[:d.worstN] {
		if w > baseline {
			baseline = w
		}
	}
	cum := d.sc.ws[:len(d.pop)]
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

// rouletteIndex draws one population index proportionally to the
// weights whose prefix sums are cum (uniform if all weights are zero).
// It consumes exactly one RNG draw: the selected index is the first
// whose prefix sum reaches the draw point, found by searchCum's binary
// search. NextGeneration spins a roulette guide table instead, which
// finds the same index from the same draw; this function serves the
// totals the table cannot take (see roulette.build) and is the table's
// test oracle.
func rouletteIndex(cum []float64, total float64, rng *xrand.Rand) int {
	if total <= 0 {
		return rng.Intn(len(cum))
	}
	return searchCum(cum, rng.Float64()*total)
}

// searchCum returns the first index whose prefix sum reaches r, or the
// last index if none does (r NaN or past the total). It is
// sort.SearchFloat64s's binary search written inline: same midpoints,
// same predicate.
func searchCum(cum []float64, r float64) int {
	i, j := 0, len(cum)
	for i < j {
		h := int(uint(i+j) >> 1)
		if !(cum[h] >= r) {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(cum) {
		return i
	}
	return len(cum) - 1
}

// roulette is a guide table over a roulette's prefix sums (Chen and
// Asau's indexed search, 1974): m = len(cum) buckets, bucket j holding
// the threshold j·total/m and the first index whose prefix sum reaches
// it. A draw point r starts at bucket ⌊r·m/total⌋, steps down while
// that bucket's threshold exceeds r (rounding can overshoot by one),
// and scans forward from the bucket's index for the first prefix sum
// that reaches r. Every index before the bucket's has a prefix sum
// below its threshold, so below r, and the prefix sums do not decrease,
// so the scan stops at exactly the index rouletteIndex's binary search
// finds: after about two comparisons, where the search takes log2(m)
// branches that the hardware cannot predict.
type roulette struct {
	cum     []float64 // prefix sums of the weights, nondecreasing
	total   float64   // cum's last element
	scale   float64   // m/total; 0 sends every draw to rouletteIndex
	buckets []bucket
}

// bucket is one entry of a roulette's guide table.
type bucket struct {
	thr   float64 // j·total/m for bucket j
	first int32   // the first index whose prefix sum reaches thr
}

// newRoulette allocates a table for up to n weights.
func newRoulette(n int) roulette {
	return roulette{buckets: make([]bucket, n)}
}

// build fills the table over cum, prefix sums accumulated from
// non-negative weights as scaledCum accumulates them (so they never
// decrease, and a NaN weight makes the total NaN). A total that is not
// positive and finite, or whose m/total overflows, leaves the table
// unused: each draw then goes to rouletteIndex, which also keeps the
// uniform draw of an all-zero wheel.
func (w *roulette) build(cum []float64) {
	w.cum = cum
	w.total, w.scale = 0, 0
	m := len(cum)
	if m == 0 {
		return
	}
	w.total = cum[m-1]
	scale := float64(m) / w.total
	if !(w.total > 0) || math.IsInf(w.total, 1) || math.IsInf(scale, 1) {
		return
	}
	w.scale = scale
	step := w.total / float64(m)
	i := 0
	for j := range w.buckets[:m] {
		t := float64(j) * step
		for i < m && !(cum[i] >= t) {
			i++
		}
		w.buckets[j] = bucket{thr: t, first: int32(i)}
	}
}

// spin draws one index as rouletteIndex(cum, total, rng) would, from the
// same single draw.
func (w *roulette) spin(rng *xrand.Rand) int {
	if w.scale == 0 {
		return rouletteIndex(w.cum, w.total, rng)
	}
	return w.find(rng.Float64() * w.total)
}

// find returns searchCum(cum, r) for a draw point r in [0, total] of a
// built table.
func (w *roulette) find(r float64) int {
	cum := w.cum
	j := int(r * w.scale)
	if j >= len(cum) {
		j = len(cum) - 1
	}
	for w.buckets[j].thr > r { // bucket 0's is 0, and r is not negative
		j--
	}
	i := int(w.buckets[j].first)
	for i < len(cum) && !(cum[i] >= r) {
		i++
	}
	if i < len(cum) {
		return i
	}
	return len(cum) - 1
}

// NextGeneration applies roulette selection (on scaled fitness),
// single-point crossover with probability C, per-bit mutation with
// probability M, and elitism, replacing the population. G<1 keeps a
// (1-G) fraction of the old population untouched. The new generation
// is built in the scratch's buffer and copied over the population, so
// the steady-state loop is allocation-free. Selection builds the roulette's
// guide table once and spins it twice per pair; the RNG draw sequence
// is identical to the old clone-per-child implementation's, whose
// spins were binary searches.
func (d *Deme) NextGeneration() {
	sc := d.sc
	w := &sc.wheel
	w.build(d.scaledCum())

	n := len(d.pop)
	replace := n
	if d.Par.G < 1 {
		replace = int(d.Par.G * float64(n))
		if replace < 2 {
			replace = 2
		}
	}
	next := sc.next
	filled := 0
	// Survivors (generation gap < 1): keep the best of the old
	// population beyond the replaced fraction.
	if replace < n {
		idx := d.sortedByFitness(n - replace)
		for _, i := range idx[:n-replace] {
			next[filled] = d.pop[i]
			filled++
		}
	}

	for filled < n {
		c1 := &next[filled]
		c2 := &sc.spare // discarded when the pair overflows the population
		if filled+1 < n {
			c2 = &next[filled+1]
		}
		*c1 = d.pop[w.spin(d.rng)]
		*c2 = d.pop[w.spin(d.rng)]
		if d.rng.Float64() < d.Par.C {
			d.crossover(c1, c2)
		}
		d.mutate(c1)
		d.mutate(c2)
		filled += 2
	}

	if d.Par.Elitist && d.bestSet {
		// The best-so-far individual replaces a random slot unchanged.
		next[d.rng.Intn(n)] = d.best
	}
	copy(d.pop, next)
	d.gen++
}

// sortedByFitness fills the scratch's index permutation with population
// indices ordered fittest first; only the first head are sorted.
func (d *Deme) sortedByFitness(head int) []int {
	idx, key := d.sc.idx[:len(d.pop)], d.sc.key[:len(d.pop)]
	for i := range idx {
		idx[i] = i
		key[i] = d.pop[i].Fit
	}
	sortIdx(idx, key, head)
	return idx
}

// crossover applies single-point crossover in place, swapping the
// tails from a random point in [1, bits), and invalidates both
// children's cached fitness.
func (d *Deme) crossover(a, b *Individual) {
	bits := d.Fn.TotalBits()
	if bits < 2 {
		return
	}
	point := 1 + d.rng.Intn(bits-1)
	a.Bits.SwapTail(&b.Bits, point)
	a.Valid = false
	b.Valid = false
}

// mutate flips each bit with probability M, invalidating the cache when
// any bit flips. This is the GA's hottest loop: one draw per bit,
// compared as an integer against the precomputed threshold. The draws
// are exactly those of a Float64() < M test per bit, resamples
// included; xrand steps the generator for them in blocks that cannot
// wrap its register and reports the bits to flip.
func (d *Deme) mutate(ind *Individual) {
	flips := d.rng.FlipBelow(d.sc.flips[:0], d.Fn.TotalBits(), d.mutThr)
	d.sc.flips = flips
	for _, i := range flips {
		ind.Bits.Flip(i)
	}
	if len(flips) > 0 {
		ind.Valid = false
	}
}

// BestK returns copies of the k fittest current individuals, fittest
// first. Individuals must be evaluated (call after EvaluateAll). The
// copies are one fresh allocation because callers hand them to the
// message layer, where receivers retain them indefinitely, and islands
// read each block where it arrives, without copying it: so nothing may
// ever write a returned block, or recycle it for another write.
func (d *Deme) BestK(k int) []Individual {
	if k > len(d.pop) {
		k = len(d.pop)
	}
	idx := d.sortedByFitness(k)
	out := make([]Individual, k)
	for j, i := range idx[:k] {
		out[j] = d.pop[i]
	}
	return out
}

// ReplaceWorst installs migrants over the worst current individuals
// (§4.2.1: "each processor then replaces the worst individuals in its
// subpopulation with these migrants"). Migrants arrive with their
// sender-computed fitness, so no re-evaluation is charged.
//
//nscc:commutative
func (d *Deme) ReplaceWorst(migrants []Individual) {
	if len(migrants) == 0 {
		return
	}
	if len(migrants) > len(d.pop) {
		// Keep the fittest, not the first-arrived: gossip fan-in can
		// exceed the deme size, and truncating in arrival order would
		// silently drop fitter migrants (and make the merge depend on
		// delivery order, breaking the commutativity this method
		// promises).
		migrants = bestOfPool(migrants, len(d.pop))
	}
	// Worst first: ascending negated fitness is exactly the old
	// descending comparator (x > y iff -x < -y; ±0 stay equal and NaN
	// unordered), so the sort makes the same decisions. Only the first
	// len(migrants) slots are overwritten, so only they are sorted.
	idx, key := d.sc.idx[:len(d.pop)], d.sc.key[:len(d.pop)]
	for i := range idx {
		idx[i] = i
		key[i] = -d.pop[i].Fit
	}
	sortIdx(idx, key, len(migrants))
	for i := range migrants {
		d.pop[idx[i]] = migrants[i]
	}
	d.trackBest()
}

// bestOfPool returns the k fittest individuals from a migrant pool,
// fittest first (used when more migrants arrive than slots exist). The
// returned individuals are copies; pool is never reordered.
func bestOfPool(pool []Individual, k int) []Individual {
	var ps poolSorter
	return ps.bestK([][]Individual{pool}, k)
}

// poolSorter selects the fittest migrants of a pool that arrives as
// blocks, one per source read, without concatenating them. It gathers
// the blocks' Fit keys, block after block, into one key array, sorts an
// index permutation over them, and copies out only the top k
// individuals, each from its block. Sorting indices by a flat key slice
// instead of Individuals keeps each comparison to two loads. The
// selected order is that of a sort of the concatenated pool: the sort's
// decisions depend only on the comparisons' verdicts, which are the
// same Fit comparisons either way.
type poolSorter struct {
	idx   []int        // the permutation the sort moves: concatenation indices
	key   []float64    // the gathered Fit keys, by concatenation index
	start []int        // start[b] is block b's first concatenation index
	top   []Individual // the selection handed to ReplaceWorst
}

// bestK returns the k fittest individuals of the blocks' concatenation,
// fittest first. The returned slice is the sorter's scratch, valid until
// the next call; the blocks are only read.
func (ps *poolSorter) bestK(blocks [][]Individual, k int) []Individual {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	if cap(ps.idx) < n {
		ps.idx = make([]int, n)
		ps.key = make([]float64, n)
	}
	idx, key, start := ps.idx[:n], ps.key[:n], ps.start[:0]
	i := 0
	for _, b := range blocks {
		start = append(start, i)
		for j := range b {
			idx[i] = i
			key[i] = b[j].Fit
			i++
		}
	}
	ps.start = start
	k = min(k, n)
	sortIdx(idx, key, k)
	top := ps.top[:0]
	for _, i := range idx[:k] {
		// The last block starting at or before i holds it: an empty
		// block starts where the next one does.
		b := sort.SearchInts(start, i+1) - 1
		top = append(top, blocks[b][i-start[b]])
	}
	ps.top = top
	return top
}

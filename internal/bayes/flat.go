package bayes

import "nscc/internal/xrand"

// lut is a flattened, read-only lookup structure over one Network plus
// one Query, built once per serial run or Plan and shared by every
// partition of every run on that plan. It replaces the hot paths'
// per-sample map walks and [][]float64 pointer chases with contiguous
// slices, and it compiles each node's draw:
//
//   - each node's CPT rows are laid out back to back in one []float64
//     (stride = the node's state count), so selecting a distribution is
//     one offset computation instead of a slice-of-slices indirection;
//   - the same rows as running sums, added left to right, so a draw is
//     one comparison per state against a precomputed bound;
//   - each parent's mixed-radix stride, so a node's row index is one
//     multiply-add per parent;
//   - the query evidence map becomes a per-node slice (-1 = unobserved),
//     so evidence tests index instead of hashing.
//
// Every CPT lookup goes through it: the serial, parallel and
// likelihood-weighting samplers, Defaults and Exact (the golden sweep
// fingerprints in internal/exper pin its draw sequence).
type lut struct {
	states  []int
	parents [][]int     // aliases Nodes[i].Parents (read-only)
	strides [][]int     // strides[i][k]: the row-index weight of parents[i][k]'s state
	cpt     [][]float64 // cpt[i]: node i's CPT rows, contiguous, stride states[i]
	cum     [][]float64 // cum[i]: cpt[i]'s rows as running sums, same layout

	ev       []int // observed state per node, -1 if unobserved
	evNodes  []int // evidence node ids, ascending
	evStates []int // observed state per evNodes entry
}

// newLUT flattens bn and q. A zero Query (no evidence) is valid and
// yields an evidence-free sampler.
func newLUT(bn *Network, q Query) *lut {
	n := bn.N()
	l := &lut{
		states:  make([]int, n),
		parents: make([][]int, n),
		strides: make([][]int, n),
		cpt:     make([][]float64, n),
		cum:     make([][]float64, n),
		ev:      make([]int, n),
	}
	for i := range bn.Nodes {
		nd := &bn.Nodes[i]
		l.states[i] = nd.States
		l.parents[i] = nd.Parents
		// The last parent varies fastest: its stride is 1, and each
		// earlier parent's is the product of the later ones' state
		// counts, which gives the mixed-radix index Node.CPT documents.
		strides := make([]int, len(nd.Parents))
		w := 1
		for k := len(nd.Parents) - 1; k >= 0; k-- {
			strides[k] = w
			w *= bn.Nodes[nd.Parents[k]].States
		}
		l.strides[i] = strides
		flat := make([]float64, 0, len(nd.CPT)*nd.States)
		cum := make([]float64, 0, len(nd.CPT)*nd.States)
		for _, row := range nd.CPT {
			flat = append(flat, row...)
			acc := 0.0
			for _, p := range row {
				acc += p
				cum = append(cum, acc)
			}
		}
		l.cpt[i] = flat
		l.cum[i] = cum
		l.ev[i] = -1
	}
	// Node-index order keeps evNodes deterministic regardless of map
	// iteration order.
	for i := 0; i < n; i++ {
		if s, ok := q.Evidence[i]; ok {
			l.ev[i] = s
			l.evNodes = append(l.evNodes, i)
			l.evStates = append(l.evStates, s)
		}
	}
	return l
}

// combo returns the CPT row of node i selected by the parents' states
// in values (which must hold states for all of i's parents).
func (l *lut) combo(i int, values []int) int {
	c := 0
	for k, p := range l.parents[i] {
		c += values[p] * l.strides[i][k]
	}
	return c
}

// dist returns node i's conditional distribution for the given parent
// combination. The returned slice aliases the flat table and must not
// be written.
func (l *lut) dist(i, combo int) []float64 {
	st := l.states[i]
	off := combo * st
	return l.cpt[i][off : off+st]
}

// drawRow returns the state that u in [0,1) selects in row combo of a
// node's running-sum table cum with states states: the first state
// whose running sum exceeds u, or the last state if none does. The
// last state's own bound is never tested, since either way it is the
// answer. Every sampler draws through it.
func drawRow(cum []float64, states, combo int, u float64) int {
	off := combo * states
	last := states - 1
	for s, c := range cum[off : off+last] {
		if u < c {
			return s
		}
	}
	return last
}

// sampleInto forward-samples every node into values (len >= N) using
// rng, in topological order.
func (l *lut) sampleInto(values []int, rng *xrand.Rand) {
	for i, st := range l.states {
		values[i] = drawRow(l.cum[i], st, l.combo(i, values), rng.Float64())
	}
}

// sampleWeighted draws one sample with the evidence nodes clamped,
// returning the likelihood weight (the product of the evidence values'
// conditional probabilities given their sampled parents, accumulated
// in node order).
func (l *lut) sampleWeighted(values []int, rng *xrand.Rand) float64 {
	w := 1.0
	for i, st := range l.states {
		c := l.combo(i, values)
		if ev := l.ev[i]; ev >= 0 {
			values[i] = ev
			w *= l.dist(i, c)[ev]
		} else {
			values[i] = drawRow(l.cum[i], st, c, rng.Float64())
		}
	}
	return w
}

// matches is Query.Matches on the evidence slices (pure conjunction,
// so the fixed iteration order cannot change the verdict).
func (l *lut) matches(values []int) bool {
	for k, n := range l.evNodes {
		if values[n] != l.evStates[k] {
			return false
		}
	}
	return true
}

// The replayable draws of the parallel sampler hash (seed, node,
// iteration, parent combination) to a uniform with three rounds of a
// SplitMix64-style mix, one round per input after the seed. A plan
// runs the (seed, node) round once per node (nodeKey), and each draw
// runs the other two (uniformAt).

// splitMixGamma is the SplitMix64 increment added before each round.
const splitMixGamma = 0x9E3779B97F4A7C15

// mixRound folds v into the hash state z with one SplitMix64 round.
func mixRound(z, v uint64) uint64 {
	z += v + splitMixGamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// nodeKey is the hash state after the (seed, node) round.
func nodeKey(seed int64, node int) uint64 {
	return mixRound(uint64(seed), uint64(node))
}

// uniformAt finishes the hash from a node's key with the iteration and
// the parent combination, and maps it to a uniform in [0,1). Re-drawing
// the same slot with the same parent values reproduces the same state,
// while a changed parent combination gives an independent draw.
func uniformAt(key uint64, iter int64, combo int) float64 {
	z := mixRound(mixRound(key, uint64(iter)), uint64(combo))
	return float64(z>>11) / (1 << 53)
}

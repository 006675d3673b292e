package bayes

import "nscc/internal/xrand"

// lut is a flattened, read-only lookup structure over one Network plus
// one Query, built once per serial run or Plan and shared by every
// partition of every run on that plan. It replaces the hot paths'
// per-sample map walks and [][]float64 pointer chases with contiguous
// slices:
//
//   - each node's CPT rows are laid out back to back in one []float64
//     (stride = the node's state count), so selecting a distribution is
//     one offset computation instead of a slice-of-slices indirection;
//   - the query evidence map becomes a per-node slice (-1 = unobserved),
//     so evidence tests index instead of hashing.
//
// Every CPT lookup goes through it: the serial, parallel and
// likelihood-weighting samplers, Defaults and Exact (the golden sweep
// fingerprints in internal/exper pin its draw sequence).
type lut struct {
	states  []int
	parents [][]int     // aliases Nodes[i].Parents (read-only)
	cpt     [][]float64 // cpt[i]: node i's CPT rows, contiguous, stride states[i]

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
		cpt:     make([][]float64, n),
		ev:      make([]int, n),
	}
	for i := range bn.Nodes {
		nd := &bn.Nodes[i]
		l.states[i] = nd.States
		l.parents[i] = nd.Parents
		flat := make([]float64, 0, len(nd.CPT)*nd.States)
		for _, row := range nd.CPT {
			flat = append(flat, row...)
		}
		l.cpt[i] = flat
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

// comboIndex computes the CPT row selected by the parents' states in
// values (which must hold states for all indices < i).
func (l *lut) comboIndex(i int, values []int) int {
	combo := 0
	for _, p := range l.parents[i] {
		combo = combo*l.states[p] + values[p]
	}
	return combo
}

// dist returns node i's conditional distribution for the given parent
// combination. The returned slice aliases the flat table and must not
// be written.
func (l *lut) dist(i, combo int) []float64 {
	st := l.states[i]
	off := combo * st
	return l.cpt[i][off : off+st]
}

// sampleInto forward-samples every node into values (len >= N) using
// rng, in topological order.
func (l *lut) sampleInto(values []int, rng *xrand.Rand) {
	for i := range l.cpt {
		values[i] = drawFrom(l.dist(i, l.comboIndex(i, values)), rng.Float64())
	}
}

// sampleNodeAt draws node i's state given the parent states in values,
// using the deterministic per-(node, iteration, parent-combination)
// random stream required by rollback replay: re-sampling the same slot
// with the same parent values reproduces the same state, while a
// changed parent combination gives an independent draw. seed
// distinguishes runs.
func (l *lut) sampleNodeAt(i int, iter int64, values []int, seed int64) int {
	combo := l.comboIndex(i, values)
	u := hashUniform(seed, int64(i), iter, int64(combo))
	return drawFrom(l.dist(i, combo), u)
}

// sampleWeighted draws one sample with the evidence nodes clamped,
// returning the likelihood weight (the product of the evidence values'
// conditional probabilities given their sampled parents, accumulated
// in node order).
func (l *lut) sampleWeighted(values []int, rng *xrand.Rand) float64 {
	w := 1.0
	for i := range l.cpt {
		dist := l.dist(i, l.comboIndex(i, values))
		if ev := l.ev[i]; ev >= 0 {
			values[i] = ev
			w *= dist[ev]
		} else {
			values[i] = drawFrom(dist, rng.Float64())
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

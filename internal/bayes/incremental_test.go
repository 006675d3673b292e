package bayes

import (
	"math/rand"
	"testing"
)

// incWorker builds a coordinator worker with just enough state to drive
// the incremental stopping-rule counters: 3 partitions, the coordinator
// owning nodes {0,1,2} with evidence node 1 (=1) and query node 0
// (state 1).
func incWorker(t *testing.T) *worker {
	t.Helper()
	bn := &Network{Name: "inc", Nodes: []Node{
		{Name: "a", States: 3, CPT: [][]float64{{0.5, 0.3, 0.2}}},
		{Name: "b", States: 2, CPT: [][]float64{{0.6, 0.4}}},
		{Name: "c", States: 2, CPT: [][]float64{{0.1, 0.9}}},
	}}
	q := Query{Node: 0, State: 1, Evidence: map[int]int{1: 1}}
	cfg := &ParallelConfig{Net: bn, Query: q, P: 3, Precision: 0.01}
	w := &worker{
		cfg: cfg, bn: bn, lut: newLUT(bn, q), p: 0, coord: true,
		owned:   []int{0, 1, 2},
		pos:     []int{0, 1, 2},
		evNodes: []int{1},
		evBits:  make([][]int8, cfg.P),
		evKnown: make([]int64, cfg.P),
	}
	return w
}

// countUpTo tallies accepted samples and query hits over iterations
// [0, wm) from scratch: the reference the incremental counters are
// held to.
func (w *worker) countUpTo(wm int64) (hits, accepted int64) {
	qn := w.cfg.Query.Node
	for t := int64(0); t < wm; t++ {
		if !w.ownEvidenceOK(t) {
			continue
		}
		ok := true
		for q := 0; q < w.cfg.P; q++ {
			if q != w.p && w.evBits[q][t] != 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		accepted++
		if int(w.row(t)[w.pos[qn]]) == w.cfg.Query.State {
			hits++
		}
	}
	return hits, accepted
}

// TestIncrementalCountMatchesRecount drives a randomized sequence of
// the three mutations the counters must survive — new iterations,
// evidence-bit rewrites below the counted watermark (peer rollback
// corrections), and in-place row repairs of counted iterations (local
// rollbacks) — and cross-checks (cntHits, cntAcc) against the
// from-scratch countUpTo reference after every advance.
func TestIncrementalCountMatchesRecount(t *testing.T) {
	w := incWorker(t)
	rng := rand.New(rand.NewSource(7))
	randRow := func(row []int8) {
		row[0] = int8(rng.Intn(3))
		row[1] = int8(rng.Intn(2))
		row[2] = int8(rng.Intn(2))
	}
	appendIter := func() {
		randRow(w.newLogRow())
		w.logLen++
		it := w.logLen - 1
		for q := 1; q < w.cfg.P; q++ {
			// Leave occasional gaps so the watermark lags the log.
			if rng.Float64() < 0.9 {
				w.setEvBit(q, it, rng.Float64() < 0.7)
			}
		}
	}
	for i := 0; i < 40; i++ {
		appendIter()
	}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(5) {
		case 0:
			appendIter()
		case 1: // peer correction: rewrite any bit, counted or not
			q := 1 + rng.Intn(w.cfg.P-1)
			if n := int64(len(w.evBits[q])); n > 0 {
				w.setEvBit(q, rng.Int63n(n), rng.Float64() < 0.5)
			}
		case 4: // late arrival: fill a peer's lowest unknown bit
			q := 1 + rng.Intn(w.cfg.P-1)
			if w.evKnown[q] < int64(len(w.evBits[q])) && w.evBits[q][w.evKnown[q]] < 0 {
				w.setEvBit(q, w.evKnown[q], rng.Float64() < 0.7)
			}
		case 2: // local repair: rewrite a logged row in place
			if n := w.logLen; n > 0 {
				d := rng.Int63n(n)
				w.rowScratch = append(w.rowScratch[:0], w.row(d)...)
				old := w.rowScratch
				randRow(w.row(d))
				if d < w.cntWM {
					w.recountRepair(d, old)
				}
			}
		case 3:
			w.advanceCount(w.finalWatermark())
		}
		if step%7 == 0 {
			w.advanceCount(w.finalWatermark())
		}
		wantHits, wantAcc := w.countUpTo(w.cntWM)
		if w.cntHits != wantHits || w.cntAcc != wantAcc {
			t.Fatalf("step %d: incremental (hits=%d acc=%d) != recount (hits=%d acc=%d) at wm=%d",
				step, w.cntHits, w.cntAcc, wantHits, wantAcc, w.cntWM)
		}
	}
	if w.cntWM == 0 || w.cntAcc == 0 {
		t.Fatalf("degenerate exercise: wm=%d acc=%d", w.cntWM, w.cntAcc)
	}
}

// TestFinalWatermarkMonotone checks the cached known-prefix scan never
// runs backwards as bits arrive out of order.
func TestFinalWatermarkMonotone(t *testing.T) {
	w := incWorker(t)
	rng := rand.New(rand.NewSource(11))
	last := int64(0)
	for i := 0; i < 500; i++ {
		w.newLogRow()
		w.logLen++
		for q := 1; q < w.cfg.P; q++ {
			it := rng.Int63n(w.logLen)
			w.setEvBit(q, it, true)
		}
		wm := w.finalWatermark()
		if wm < last {
			t.Fatalf("watermark went backwards: %d after %d", wm, last)
		}
		last = wm
	}
}

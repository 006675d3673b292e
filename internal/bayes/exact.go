package bayes

// Exact computes the query probability by full joint enumeration. It is
// the ground truth the sampling estimates are verified against; it
// refuses networks whose joint state space exceeds ~4M entries.
func Exact(bn *Network, q Query) float64 {
	space := 1.0
	for i := range bn.Nodes {
		space *= float64(bn.Nodes[i].States)
		if space > 1<<22 {
			panic("bayes: network too large for exact enumeration")
		}
	}
	l := newLUT(bn, Query{})
	values := make([]int, bn.N())
	var pEvidence, pBoth float64
	var walk func(i int, prob float64)
	walk = func(i int, prob float64) {
		if i == bn.N() {
			if q.Matches(values) {
				pEvidence += prob
				if values[q.Node] == q.State {
					pBoth += prob
				}
			}
			return
		}
		dist := l.dist(i, l.combo(i, values))
		for s, p := range dist {
			if p == 0 {
				continue
			}
			values[i] = s
			walk(i+1, prob*p)
		}
		values[i] = 0
	}
	walk(0, 1)
	if pEvidence == 0 {
		return 0
	}
	return pBoth / pEvidence
}

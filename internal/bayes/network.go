// Package bayes implements the paper's second driver application:
// probabilistic inference in Bayesian belief networks by the logic
// sampling approximate algorithm [15], serially and in parallel. The
// parallel implementations follow §3.2: the network is partitioned
// across processors; processors exchange the values assigned to
// interface nodes each sampling iteration; the asynchronous variant
// gambles on default values and repairs wrong gambles by rollback with
// antimessages; the partially asynchronous variant throttles the
// processors with Global_Read so nobody strays far ahead or lags far
// behind, bounding the number of costly rollbacks.
//
// A parallel run's set-up depends only on its network, query,
// processor count and seed: the partition with its interface sets, wave
// phases and DSM locations, the flattened tables, and the default
// values. NewPlan builds it once, and Plan.Run runs one variant on it,
// so the variants of a paired comparison (Figure 3's sync, async and
// gr(age) programs) share one partition and one set of defaults.
// RunParallel is NewPlan followed by Run.
package bayes

import (
	"fmt"

	"nscc/internal/partition"
	"nscc/internal/xrand"
)

// Node is one event variable of a belief network.
type Node struct {
	Name    string
	States  int   // number of values the event can take
	Parents []int // indices of parent nodes; all smaller than this node's index
	// CPT is the conditional probability table: CPT[combo][s] is the
	// probability of state s given the parent combination combo, where
	// combo is the mixed-radix index of the parents' states (first
	// parent most significant).
	CPT [][]float64
}

// Network is a Bayesian belief network whose nodes are stored in
// topological order (every node's parents precede it).
type Network struct {
	Name  string
	Nodes []Node
}

// N returns the node count.
func (bn *Network) N() int { return len(bn.Nodes) }

// Edges returns the number of directed dependency edges.
func (bn *Network) Edges() int {
	e := 0
	for i := range bn.Nodes {
		e += len(bn.Nodes[i].Parents)
	}
	return e
}

// EdgesPerNode returns Table 2's density statistic.
func (bn *Network) EdgesPerNode() float64 {
	if bn.N() == 0 {
		return 0
	}
	return float64(bn.Edges()) / float64(bn.N())
}

// MaxStates returns the largest state count of any node.
func (bn *Network) MaxStates() int {
	m := 0
	for i := range bn.Nodes {
		if bn.Nodes[i].States > m {
			m = bn.Nodes[i].States
		}
	}
	return m
}

// Validate checks topological parent order and CPT shapes/stochasticity:
// every probability is a number of at least 0, and every row sums to 1.
func (bn *Network) Validate() error {
	for i := range bn.Nodes {
		nd := &bn.Nodes[i]
		if nd.States < 2 {
			return fmt.Errorf("bayes: node %d (%s) has %d states", i, nd.Name, nd.States)
		}
		combos := 1
		for _, p := range nd.Parents {
			if p >= i {
				return fmt.Errorf("bayes: node %d (%s) has non-topological parent %d", i, nd.Name, p)
			}
			if p < 0 {
				return fmt.Errorf("bayes: node %d has negative parent", i)
			}
			combos *= bn.Nodes[p].States
		}
		if len(nd.CPT) != combos {
			return fmt.Errorf("bayes: node %d (%s) CPT has %d rows, want %d", i, nd.Name, len(nd.CPT), combos)
		}
		for c, row := range nd.CPT {
			if len(row) != nd.States {
				return fmt.Errorf("bayes: node %d CPT row %d has %d entries, want %d", i, c, len(row), nd.States)
			}
			// Both tests are written to fail for NaN, which compares
			// false with everything.
			sum := 0.0
			for _, p := range row {
				if !(p >= 0) {
					return fmt.Errorf("bayes: node %d CPT row %d has probability %v", i, c, p)
				}
				sum += p
			}
			if !(sum >= 1-1e-9 && sum <= 1+1e-9) {
				return fmt.Errorf("bayes: node %d CPT row %d sums to %v", i, c, sum)
			}
		}
	}
	return nil
}

// Defaults returns each node's default value for the asynchronous
// gambling scheme: the most probable state of the node's marginal
// distribution, estimated by nSamples forward samples (§3.2 picks
// defaults "on the basis of the conditional probability distribution of
// the nodes"). Deterministic in seed.
func (bn *Network) Defaults(nSamples int, seed int64) []int {
	rng := xrand.New(seed)
	l := newLUT(bn, Query{})
	counts := make([][]int, bn.N())
	for i := range counts {
		counts[i] = make([]int, bn.Nodes[i].States)
	}
	values := make([]int, bn.N())
	for s := 0; s < nSamples; s++ {
		l.sampleInto(values, rng)
		for i, v := range values {
			counts[i][v]++
		}
	}
	defs := make([]int, bn.N())
	for i, c := range counts {
		best := 0
		for s, n := range c {
			if n > c[best] {
				best = s
			}
		}
		defs[i] = best
	}
	return defs
}

// Graph returns the undirected dependency graph (for partitioning and
// Table 2's edge-cut).
func (bn *Network) Graph() *partition.Graph {
	g := partition.NewGraph(bn.N())
	for i := range bn.Nodes {
		for _, p := range bn.Nodes[i].Parents {
			g.AddEdge(p, i)
		}
	}
	return g
}

// Query asks for the probability that Node takes State given the
// Evidence instantiation.
type Query struct {
	Node     int
	State    int
	Evidence map[int]int // node -> observed state
}

// Matches reports whether a full sample agrees with the evidence.
func (q Query) Matches(values []int) bool {
	for n, s := range q.Evidence {
		if values[n] != s {
			return false
		}
	}
	return true
}

package ga

import (
	"fmt"
	"slices"

	"nscc/internal/graph"
)

// Gossip migrant dissemination. The paper's Broadcast topology sends
// every island's migrant block to every other island — O(P²) update
// traffic per migration round, which is what stops the simulated
// cluster well short of 1000 nodes. The gossip topologies replace the
// all-to-all with a push-pull peer exchange over a sparse symmetric
// neighbor set: each island's migrant location is read by (and its
// updates multicast to) only its neighbors, and each island pulls only
// its neighbors' blocks. Good migrants still reach everyone — they
// spread transitively, one hop per migration round — so convergence
// degrades with the overlay's diameter rather than collapsing, while
// per-round traffic drops to O(P·degree).
//
// The neighbor sets are built from the graph package's topology
// generators (the same families the graph workloads run on), with
// edges symmetrized: migrant exchange is push-pull, so if i reads j's
// block, j also reads i's.

// gossip reports whether the topology is one of the gossip overlays.
func (t Topology) gossip() bool {
	switch t {
	case GossipRing, GossipRandom, GossipClustered:
		return true
	}
	return false
}

// ParseTopology resolves a -topology flag value.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "broadcast":
		return Broadcast, nil
	case "ring":
		return Ring, nil
	case "gossip-ring":
		return GossipRing, nil
	case "gossip-random":
		return GossipRandom, nil
	case "gossip-clustered":
		return GossipClustered, nil
	}
	return 0, fmt.Errorf("ga: unknown topology %q (want broadcast, ring, gossip-ring, gossip-random, or gossip-clustered)", s)
}

// gossipNeighbors builds the symmetric per-island neighbor sets for a
// gossip topology over p islands, deterministic in (t, p, seed). Each
// set is sorted, self-free, and mutual (j ∈ nbrs[i] ⇔ i ∈ nbrs[j]);
// the underlying generators guarantee the overlay is connected (they
// all carry a ring backbone or a cluster-level ring).
func gossipNeighbors(t Topology, p int, seed int64) ([][]int, error) {
	if p <= 1 {
		return make([][]int, p), nil
	}
	var (
		g   *graph.Graph
		err error
	)
	switch t {
	case GossipRandom:
		// Ring backbone plus p random chords: symmetric degree ~4,
		// logarithmic diameter — the classic gossip overlay.
		g, err = graph.Random(p, p, seed)
	case GossipClustered:
		// Dense communities joined by single bridges: the overlay shape
		// of a rack-partitioned cluster, and the hardest case for
		// migrant spread (bridges are the only inter-cluster paths).
		// Below the generator's n ≥ 2k floor there is nothing to
		// cluster; degrade to the ring.
		if k := clusterCount(p); p >= 2*k {
			g, err = graph.Clustered(p, k, seed)
		} else {
			g, err = graph.Ring(p)
		}
	default: // GossipRing
		g, err = graph.Ring(p)
	}
	if err != nil {
		return nil, err
	}
	// Each edge puts either end in the other's set; a set is then sorted
	// and its repeats dropped (an edge listed both ways, or twice).
	nbrs := make([][]int, p)
	for v := 0; v < p; v++ {
		for e := g.InOff[v]; e < g.InOff[v+1]; e++ {
			u := int(g.InSrc[e])
			nbrs[u] = append(nbrs[u], v)
			nbrs[v] = append(nbrs[v], u)
		}
	}
	for i, set := range nbrs {
		slices.Sort(set)
		nbrs[i] = slices.Compact(set)
	}
	return nbrs, nil
}

// clusterCount picks the community count for the clustered overlay:
// √p-ish clusters keep both the cluster size and the cluster-level
// ring diameter sublinear.
func clusterCount(p int) int {
	k := 2
	for k*k < p {
		k++
	}
	if k < 2 {
		k = 2
	}
	return k
}

// topologySources resolves cfg's migration pattern into, for each
// island, the list of islands whose migrant blocks it reads
// (sources[i]) and the list that reads island i's block (readers[i]).
// For the dense topologies these mirror RunIsland's historical wiring;
// for gossip overlays both are the symmetric neighbor set.
func topologySources(t Topology, p int, seed int64) (sources, readers [][]int, err error) {
	if t.gossip() {
		nbrs, err := gossipNeighbors(t, p, seed)
		if err != nil {
			return nil, nil, err
		}
		return nbrs, nbrs, nil
	}
	sources = make([][]int, p)
	readers = make([][]int, p)
	for i := 0; i < p; i++ {
		switch t {
		case Ring:
			if p > 1 {
				readers[i] = []int{(i + 1) % p}
			}
		default: // Broadcast
			for j := 0; j < p; j++ {
				if j != i {
					readers[i] = append(readers[i], j)
				}
			}
		}
		for _, r := range readers[i] {
			sources[r] = append(sources[r], i)
		}
	}
	return sources, readers, nil
}

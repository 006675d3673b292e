package ga

import (
	"reflect"
	"testing"

	"nscc/internal/core"
	"nscc/internal/ga/functions"
	"nscc/internal/netsim"
)

func TestGossipRingNeighbors(t *testing.T) {
	nbrs, err := gossipNeighbors(GossipRing, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := []int{(i + 7) % 8, (i + 1) % 8}
		if want[0] > want[1] {
			want[0], want[1] = want[1], want[0]
		}
		if !reflect.DeepEqual(nbrs[i], want) {
			t.Fatalf("island %d neighbors %v, want %v", i, nbrs[i], want)
		}
	}
}

// TestGossipNeighborsWellFormed checks every gossip overlay's
// invariants at several sizes: mutual edges (push-pull symmetry), no
// self-loops, connectivity (a migrant can reach every island
// transitively), and determinism in the seed.
func TestGossipNeighborsWellFormed(t *testing.T) {
	for _, topo := range []Topology{GossipRing, GossipRandom, GossipClustered} {
		for _, p := range []int{2, 3, 4, 16, 100} {
			nbrs, err := gossipNeighbors(topo, p, 7)
			if err != nil {
				t.Fatalf("%v p=%d: %v", topo, p, err)
			}
			if len(nbrs) != p {
				t.Fatalf("%v p=%d: %d neighbor sets", topo, p, len(nbrs))
			}
			for i, ns := range nbrs {
				for _, j := range ns {
					if j == i {
						t.Fatalf("%v p=%d: island %d is its own neighbor", topo, p, i)
					}
					mutual := false
					for _, back := range nbrs[j] {
						if back == i {
							mutual = true
						}
					}
					if !mutual {
						t.Fatalf("%v p=%d: %d->%d not mutual", topo, p, i, j)
					}
				}
			}
			// Connectivity by BFS from island 0.
			seen := make([]bool, p)
			queue := []int{0}
			seen[0] = true
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range nbrs[v] {
					if !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("%v p=%d: island %d unreachable from 0", topo, p, i)
				}
			}
			again, err := gossipNeighbors(topo, p, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(nbrs, again) {
				t.Fatalf("%v p=%d: neighbor sets not deterministic in seed", topo, p)
			}
		}
	}
}

func TestParseTopology(t *testing.T) {
	for s, want := range map[string]Topology{
		"broadcast":        Broadcast,
		"ring":             Ring,
		"gossip-ring":      GossipRing,
		"gossip-random":    GossipRandom,
		"gossip-clustered": GossipClustered,
	} {
		got, err := ParseTopology(s)
		if err != nil || got != want {
			t.Fatalf("ParseTopology(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() != s {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseTopology("mesh"); err == nil {
		t.Fatal("ParseTopology accepted an unknown topology")
	}
}

// gossipRunConfig is a small NonStrict island run for the end-to-end
// gossip tests.
func gossipRunConfig(topo Topology, p int) IslandConfig {
	return IslandConfig{
		Fn: functions.F1, Par: DeJongParams(), P: p,
		Mode: core.NonStrict, Age: 10, Topology: topo,
		FixedGens: 30, MinGens: 30, MaxGens: 300, Target: 0.5,
		Seed: 3, Calib: DefaultCalibration(),
	}
}

// TestGossipRunConvergesWithLessTraffic runs the same configuration
// under broadcast and gossip dissemination: both must reach the
// quality target, and the gossip overlay must put far fewer bytes on
// the wire — the point of the whole construction. The comparison runs
// on the crossbar switch, where a multicast costs one copy per
// destination; on the flat shared bus a multicast is a single frame
// however many islands listen, so dissemination fan-out is invisible
// there (and that bus saturates long before 1000 nodes anyway).
func TestGossipRunConvergesWithLessTraffic(t *testing.T) {
	const p = 12
	onSwitch := func(topo Topology) IslandConfig {
		cfg := gossipRunConfig(topo, p)
		sw := netsim.DefaultSwitchConfig()
		cfg.Switch = &sw
		return cfg
	}
	bres, err := RunIsland(onSwitch(Broadcast))
	if err != nil {
		t.Fatal(err)
	}
	gres, err := RunIsland(onSwitch(GossipRandom))
	if err != nil {
		t.Fatal(err)
	}
	if !bres.ReachedTarget || !gres.ReachedTarget {
		t.Fatalf("reached target: broadcast=%v gossip=%v; want both", bres.ReachedTarget, gres.ReachedTarget)
	}
	if gres.NetBytes*2 > bres.NetBytes {
		t.Fatalf("gossip moved %d bytes vs broadcast %d; want <1/2", gres.NetBytes, bres.NetBytes)
	}
}

// TestGossipRunsOnAllOverlays exercises each overlay end to end,
// including the tiny-P degenerate cases.
func TestGossipRunsOnAllOverlays(t *testing.T) {
	for _, topo := range []Topology{GossipRing, GossipRandom, GossipClustered} {
		for _, p := range []int{1, 2, 9} {
			res, err := RunIsland(gossipRunConfig(topo, p))
			if err != nil {
				t.Fatalf("%v p=%d: %v", topo, p, err)
			}
			if !res.ReachedTarget {
				t.Fatalf("%v p=%d: did not reach target", topo, p)
			}
		}
	}
}

// TestGossipOnHierFabric runs gossip dissemination on the hierarchical
// rack/spine fabric — the pairing the 1000+-node scaling experiments
// use — and checks determinism across two identical runs.
func TestGossipOnHierFabric(t *testing.T) {
	run := func() IslandResult {
		cfg := gossipRunConfig(GossipRandom, 16)
		h := netsim.DefaultHierConfig()
		h.RackSize = 4
		cfg.Hier = &h
		res, err := RunIsland(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.ReachedTarget {
		t.Fatal("gossip on hier fabric did not reach target")
	}
	if a.Completion != b.Completion || a.Best != b.Best || a.Messages != b.Messages {
		t.Fatalf("hier gossip run not deterministic: %+v vs %+v", a, b)
	}
}

// locCounter is a core.LocationObserver that only counts Register
// announcements.
type locCounter struct{ n int }

func (c *locCounter) ObserveWrite(int, int, int64) {}
func (c *locCounter) ObserveRead(core.ReadInfo)    {}
func (c *locCounter) ObserveLocation(int, string)  { c.n++ }

// TestIslandRegistersOnlyItsLocations checks each island registers its
// own migrant block and its sources' blocks, not all P of them.
func TestIslandRegistersOnlyItsLocations(t *testing.T) {
	const p = 64
	cfg := gossipRunConfig(GossipRandom, p)
	var c locCounter
	cfg.NodeOpts.Races = &c
	if _, err := RunIsland(cfg); err != nil {
		t.Fatal(err)
	}
	sources, _, err := topologySources(GossipRandom, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := p
	for _, s := range sources {
		want += len(s)
	}
	if c.n != want || want >= p*p {
		t.Fatalf("%d registrations, want %d (P + the sources of every island), below P² = %d", c.n, want, p*p)
	}
}

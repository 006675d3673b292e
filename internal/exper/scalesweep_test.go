package exper

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nscc/internal/ckpt"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/sim"
)

// scaleOpts is the reduced profile of the fast scale-sweep tests.
func scaleOpts(workers int, gens int64) Options {
	opts := Quick()
	opts.Trials = 1
	opts.SyncGens = gens
	opts.Workers = workers
	return opts
}

// runScaleSweep renders the sweep and returns report + CSV text plus
// the rows, so the determinism and checkpoint tests assert byte
// identity of everything a user sees.
func runScaleSweep(t *testing.T, opts Options, nodes []int, topos []ga.Topology) ([]ScaleRow, string) {
	t.Helper()
	var buf bytes.Buffer
	rows, err := ScaleSweep(&buf, opts, nodes, topos)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteScaleRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return rows, buf.String()
}

func TestScaleSweepSmoke(t *testing.T) {
	opts := scaleOpts(0, 15)
	nodes := []int{8, 16}
	rows, text := runScaleSweep(t, opts, nodes, nil)
	if want := ScaleSweepCells(opts, nodes, nil); len(rows) != want {
		t.Fatalf("%d rows for %d cells (1 trial: rows == cells)", len(rows), want)
	}
	for _, r := range rows {
		if r.Gens <= 0 || r.Gens > float64(opts.SyncGens) {
			t.Errorf("nodes=%d %s: mean gens %.1f outside (0, %d]", r.Nodes, r.Topology, r.Gens, opts.SyncGens)
		}
		if r.Messages <= 0 || r.Delivered <= 0 || r.NetBytes <= 0 {
			t.Errorf("nodes=%d %s: empty traffic counters %+v", r.Nodes, r.Topology, r)
		}
		if r.Best < 0 {
			t.Errorf("nodes=%d %s: negative best %g for a nonnegative objective", r.Nodes, r.Topology, r.Best)
		}
	}
	if !strings.Contains(text, "Scale sweep") {
		t.Error("report missing caption")
	}
	// The per-destination fabric makes the dissemination fan-out
	// visible: at equal node count, broadcast must deliver more frames
	// than any sparse gossip overlay.
	byTopo := make(map[ga.Topology]ScaleRow)
	for _, r := range rows {
		if r.Nodes == 16 {
			byTopo[r.Topology] = r
		}
	}
	for _, topo := range []ga.Topology{ga.GossipRing, ga.GossipRandom, ga.GossipClustered} {
		if byTopo[topo].Delivered >= byTopo[ga.Broadcast].Delivered {
			t.Errorf("%s delivered %d frames, broadcast %d; gossip must be sparser",
				topo, byTopo[topo].Delivered, byTopo[ga.Broadcast].Delivered)
		}
	}
}

// TestScaleSweepBroadcastCap pins the grid shape: the Broadcast
// baseline is dropped past the saturation cap, the gossip overlays
// never are, and the cell count helper agrees with the driver.
func TestScaleSweepBroadcastCap(t *testing.T) {
	opts := scaleOpts(0, 5)
	nodes := []int{8, scaleBroadcastCap + 1}
	if got, want := ScaleSweepCells(opts, nodes, nil), 2*len(ScaleTopologies)-1; got != want {
		t.Fatalf("ScaleSweepCells = %d, want %d (one broadcast cell capped)", got, want)
	}
	rows, _ := runScaleSweep(t, opts, nodes, nil)
	for _, r := range rows {
		if r.Topology == ga.Broadcast && r.Nodes > scaleBroadcastCap {
			t.Fatalf("broadcast row at %d nodes, past the %d-node cap", r.Nodes, scaleBroadcastCap)
		}
	}
	if len(rows) != 2*len(ScaleTopologies)-1 {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(ScaleTopologies)-1)
	}
}

// TestScaleSweepCheckpointResume is the scale sweep's crash drill at a
// few hundred nodes, mirroring the graph sweep's: uncached,
// fresh-cached, torn-journal resume, and a warm rerun at a different
// worker count must all produce byte-identical output.
func TestScaleSweepCheckpointResume(t *testing.T) {
	opts := scaleOpts(0, 10)
	nodes := []int{256}
	topos := []ga.Topology{ga.GossipRing, ga.GossipRandom}
	_, clean := runScaleSweep(t, opts, nodes, topos)

	dir := t.TempDir()
	cachedOpts := opts
	cachedOpts.Ckpt = ckpt.NewStore(dir, false)
	if _, got := runScaleSweep(t, cachedOpts, nodes, topos); got != clean {
		t.Fatalf("fresh cached run differs from uncached:\n%s\n--- vs ---\n%s", got, clean)
	}
	if c := cachedOpts.Ckpt.Counters(); c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("fresh run counters %+v, want 0 hits / 2 misses", c)
	}
	closeStore(t, cachedOpts.Ckpt)

	// Kill mid-write: chop a byte off the journal's last record. Resume
	// must truncate the torn tail, replay the intact cell, and re-run
	// only the torn one — byte-identically.
	journal := filepath.Join(dir, "scalesweep.ckpt")
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	resumeOpts := opts
	resumeOpts.Ckpt = ckpt.NewStore(dir, true)
	if _, got := runScaleSweep(t, resumeOpts, nodes, topos); got != clean {
		t.Fatalf("resumed run differs from clean run:\n%s\n--- vs ---\n%s", got, clean)
	}
	if c := resumeOpts.Ckpt.Counters(); c.TornRecords != 1 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("resume counters %+v, want 1 torn / 1 hit / 1 miss", c)
	}
	closeStore(t, resumeOpts.Ckpt)

	// Warm rerun at a different worker count: all hits, same bytes.
	warmOpts := opts
	warmOpts.Workers = 8
	warmOpts.Ckpt = ckpt.NewStore(dir, true)
	if _, got := runScaleSweep(t, warmOpts, nodes, topos); got != clean {
		t.Fatal("warm 8-worker run differs from clean run")
	}
	if c := warmOpts.Ckpt.Counters(); c.Hits != 2 || c.Misses != 0 {
		t.Fatalf("warm counters %+v, want 2 hits / 0 misses", c)
	}
	closeStore(t, warmOpts.Ckpt)
}

// TestScaleSweepDeterministicAtScale is the scale target's acceptance
// test: a 1000-node sweep moving over a million fabric deliveries must
// render the committed report, CSV and full-precision rows
// (testdata/golden/ScaleSweepAtScale.txt) at workers=1 and workers=8.
// Each run is checked against the file, so the runs need not share a
// process: under -race, which multiplies this sweep's cost, only the
// workers=8 run executes, and CI runs both without -race.
func TestScaleSweepDeterministicAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node sweep is long; skipped with -short")
	}
	nodes := []int{1000}
	topos := []ga.Topology{ga.GossipRing, ga.GossipRandom, ga.GossipClustered}
	workers := []int{1, 8}
	if raceEnabled {
		workers = []int{8}
	}
	for i, w := range workers {
		rows, text := runScaleSweep(t, scaleOpts(w, 150), nodes, topos)
		buf := bytes.NewBufferString(text)
		dumpScaleRows(buf, rows)
		checkGolden(t, "ScaleSweepAtScale", buf.Bytes(), i == 0, fmt.Sprintf("workers=%d", w))
		var delivered int64
		for _, r := range rows {
			if r.Nodes != 1000 {
				t.Fatalf("row at %d nodes, want 1000", r.Nodes)
			}
			delivered += r.Delivered
		}
		if delivered < 1_000_000 {
			t.Errorf("workers=%d: sweep delivered %d frames, want >= 1e6 (the scale target)", w, delivered)
		}
	}
}

// TestScaleSweepGossipChaosLiveness drives the gossip dissemination
// through 16 independently seeded random fault plans — loss bursts,
// delay spikes, reorder/duplication windows, node crashes, and
// partitions — with the reliable transport and bounded reads on. The
// assertion is liveness: every run completes its budget instead of
// deadlocking on a lost migrant update.
func TestScaleSweepGossipChaosLiveness(t *testing.T) {
	const p = 16
	for seed := int64(0); seed < 16; seed++ {
		opts := scaleOpts(2, 30)
		opts.Faults = faults.RandomPlan(seed, p, 2.0)
		opts.Reliable = true
		opts.ReadTimeout = 50 * sim.Millisecond
		rows, err := ScaleSweep(nil, opts, []int{p}, []ga.Topology{ga.GossipRandom})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rows) != 1 || rows[0].Gens <= 0 || rows[0].Completion <= 0 {
			t.Fatalf("seed %d: degenerate result %+v", seed, rows)
		}
	}
}

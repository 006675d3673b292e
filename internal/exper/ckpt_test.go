package exper

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nscc/internal/ckpt"
	"nscc/internal/ga/functions"
)

// progressLog is a ProgressSink that counts each callback; pool
// workers call it concurrently.
type progressLog struct {
	mu                   sync.Mutex
	starts, cells, dones int
	announced            int
}

func (l *progressLog) SweepStart(_ string, cells int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.starts++
	l.announced = cells
}

func (l *progressLog) CellDone(string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cells++
}

func (l *progressLog) SweepDone(string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dones++
}

// TestRunSweepJournal drives runSweep's cache path on a real journal:
// a hit replays the record without running the cell, a miss journals
// the cell's JSON, a failed journal write fails the sweep, a sweep
// without a store runs each cell once, and replayed outputs equal
// fresh and uncached ones bit for bit. Every successful
// run must report one SweepStart for n cells, one CellDone per cell,
// computed or replayed, and one SweepDone.
func TestRunSweepJournal(t *testing.T) {
	const sweep, n = "probe", 6
	key := func(i int) ckpt.Key {
		fp := cellFingerprint(sweep)
		fp.I64("i", int64(i))
		return fp.Sum()
	}
	// Reciprocals such as 1/7 and 1/13 have no short decimal form, so a
	// JSON round trip that lost a bit would show.
	value := func(i int) float64 { return 1 / float64(6*i+7) }
	// run runs the sweep on four workers with store s (nil: uncached),
	// recording which cells ran, and checks the progress callbacks.
	run := func(t *testing.T, s *ckpt.Store, cell func(int) (float64, error)) ([]float64, []bool, error) {
		t.Helper()
		log := &progressLog{}
		opts := Options{Workers: 4, Ckpt: s, Progress: log}
		var mu sync.Mutex
		ran := make([]bool, n)
		outs, err := runSweep(opts, sweep, n, key,
			func(i int) string { return fmt.Sprintf("probe cell %d", i) },
			func(i int) (float64, error) {
				mu.Lock()
				ran[i] = true
				mu.Unlock()
				return cell(i)
			})
		if err == nil && (log.starts != 1 || log.announced != n || log.cells != n || log.dones != 1) {
			t.Errorf("progress: %d starts for %d cells, %d cells done, %d sweeps done; want 1 for %d, %d, 1",
				log.starts, log.announced, log.cells, log.dones, n, n)
		}
		return outs, ran, err
	}
	fresh := func(i int) (float64, error) { return value(i), nil }
	journal := func(t *testing.T, s *ckpt.Store) *ckpt.Journal {
		t.Helper()
		j, err := s.Journal(sweep, Options{}.sweepSpace(sweep))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	t.Run("MissJournalsEncoding", func(t *testing.T) {
		s := ckpt.NewStore(t.TempDir(), false)
		if _, _, err := run(t, s, fresh); err != nil {
			t.Fatal(err)
		}
		if c := s.Counters(); c.Hits != 0 || c.Misses != n {
			t.Fatalf("counters %+v, want 0 hits / %d misses", c, n)
		}
		j := journal(t, s)
		for i := 0; i < n; i++ {
			want, err := json.Marshal(value(i))
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := j.Get(key(i)); !ok || !bytes.Equal(got, want) {
				t.Errorf("cell %d journaled %q (found %v), want %q", i, got, ok, want)
			}
		}
		closeStore(t, s)
	})

	t.Run("HitSkipsCell", func(t *testing.T) {
		s := ckpt.NewStore(t.TempDir(), false)
		if err := journal(t, s).Put(key(2), []byte("0.5")); err != nil {
			t.Fatal(err)
		}
		outs, ran, err := run(t, s, fresh)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := value(i)
			if i == 2 {
				want = 0.5
			}
			if ran[i] != (i != 2) || outs[i] != want {
				t.Errorf("cell %d: ran %v, output %v; want ran %v, output %v", i, ran[i], outs[i], i != 2, want)
			}
		}
		closeStore(t, s)
	})

	t.Run("WriteErrorFailsSweep", func(t *testing.T) {
		s := ckpt.NewStore(t.TempDir(), false)
		if err := journal(t, s).Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := run(t, s, fresh); err == nil || !strings.Contains(err.Error(), "ckpt: append") {
			t.Fatalf("sweep on a closed journal: %v, want the failed append", err)
		}
		closeStore(t, s)
	})

	t.Run("UncachedRunsEveryCell", func(t *testing.T) {
		var mu sync.Mutex
		calls := 0
		outs, ran, err := run(t, nil, func(i int) (float64, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return value(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != n {
			t.Errorf("%d cell runs for %d cells", calls, n)
		}
		for i := 0; i < n; i++ {
			if !ran[i] || math.Float64bits(outs[i]) != math.Float64bits(value(i)) {
				t.Errorf("cell %d: ran %v, output %v; want ran, output %v", i, ran[i], outs[i], value(i))
			}
		}
	})

	t.Run("ReplayEqualsFreshAndUncached", func(t *testing.T) {
		dir := t.TempDir()
		plain, _, err := run(t, nil, fresh)
		if err != nil {
			t.Fatal(err)
		}
		s := ckpt.NewStore(dir, false)
		computed, _, err := run(t, s, fresh)
		if err != nil {
			t.Fatal(err)
		}
		closeStore(t, s)
		s = ckpt.NewStore(dir, true)
		replayed, ran, err := run(t, s, func(int) (float64, error) {
			return 0, errors.New("cell ran on a warm journal")
		})
		if err != nil {
			t.Fatal(err)
		}
		if c := s.Counters(); c.Hits != n || c.Misses != 0 {
			t.Fatalf("warm counters %+v, want %d hits / 0 misses", c, n)
		}
		closeStore(t, s)
		for i := 0; i < n; i++ {
			b := math.Float64bits(plain[i])
			if ran[i] || math.Float64bits(computed[i]) != b || math.Float64bits(replayed[i]) != b {
				t.Errorf("cell %d: uncached %v, computed %v, replayed %v (ran %v)", i, plain[i], computed[i], replayed[i], ran[i])
			}
		}
	})
}

// runFigure2 renders Figure 2 and returns the exact report text, so the
// checkpoint tests can assert byte identity rather than approximate
// agreement.
func runFigure2(t *testing.T, opts Options) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Figure2(&buf, opts, []*functions.Function{functions.F1, functions.F5}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// closeStore flushes the store and fails the test on journal errors.
func closeStore(t *testing.T, s *ckpt.Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure2CheckpointResume is the sweep-level crash drill: an
// uncached run, a fresh cached run, a kill-mid-journal-write resume
// (simulated by truncating the last record), a warm rerun at a
// different worker count, and a config change must all agree — the
// first four byte-for-byte, the last by invalidating rather than
// replaying stale cells.
func TestFigure2CheckpointResume(t *testing.T) {
	opts := tinyOpts()
	clean := runFigure2(t, opts) // no checkpoint store at all

	// Fresh cached run: identical output, every cell a miss.
	dir := t.TempDir()
	cachedOpts := opts
	cachedOpts.Ckpt = ckpt.NewStore(dir, false)
	if got := runFigure2(t, cachedOpts); got != clean {
		t.Fatalf("fresh cached run differs from uncached:\n%s\n--- vs ---\n%s", got, clean)
	}
	if c := cachedOpts.Ckpt.Counters(); c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("fresh run counters %+v, want 0 hits / 2 misses", c)
	}
	closeStore(t, cachedOpts.Ckpt)

	// Kill mid-write: chop a byte off the journal's last record. Resume
	// must truncate the torn tail, replay the intact cell, and re-run
	// only the torn one — with byte-identical output.
	journal := filepath.Join(dir, "figure2.ckpt")
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	resumeOpts := opts
	resumeOpts.Ckpt = ckpt.NewStore(dir, true)
	if got := runFigure2(t, resumeOpts); got != clean {
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
	if got := runFigure2(t, warmOpts); got != clean {
		t.Fatal("warm 8-worker run differs from clean run")
	}
	if c := warmOpts.Ckpt.Counters(); c.Hits != 2 || c.Misses != 0 {
		t.Fatalf("warm counters %+v, want 2 hits / 0 misses", c)
	}
	closeStore(t, warmOpts.Ckpt)

	// A knob that reaches the simulations changes the space fingerprint:
	// the journal must invalidate wholesale, never replay stale bytes.
	staleOpts := opts
	staleOpts.SyncGens = opts.SyncGens + 10
	staleOpts.Ckpt = ckpt.NewStore(dir, true)
	if got := runFigure2(t, staleOpts); got == clean {
		t.Fatal("changed SyncGens left output identical — cells were not re-run")
	}
	if c := staleOpts.Ckpt.Counters(); c.Invalidated != 2 || c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("invalidation counters %+v, want 2 invalidated / 0 hits / 2 misses", c)
	}
	closeStore(t, staleOpts.Ckpt)
}

// TestAgeSweepCheckpointResume covers a two-journal sweep (references
// and cells) resuming across worker counts.
func TestAgeSweepCheckpointResume(t *testing.T) {
	opts := tinyOpts()
	loads := []float64{0}
	run := func(opts Options) string {
		var buf bytes.Buffer
		if _, err := AgeSweep(&buf, opts, functions.F1, 2, loads); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	clean := run(opts)

	dir := t.TempDir()
	// 1 load x 1 trial references + 1 load x 8 ages x 1 trial cells.
	const cells = 1 + 8
	freshOpts := opts
	freshOpts.Ckpt = ckpt.NewStore(dir, false)
	if got := run(freshOpts); got != clean {
		t.Fatal("fresh cached age sweep differs from uncached")
	}
	if c := freshOpts.Ckpt.Counters(); c.Hits != 0 || c.Misses != cells {
		t.Fatalf("fresh counters %+v, want 0 hits / %d misses", c, cells)
	}
	closeStore(t, freshOpts.Ckpt)
	for _, name := range []string{"agesweep-refs.ckpt", "agesweep-cells.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("journal %s: %v", name, err)
		}
	}

	warmOpts := opts
	warmOpts.Workers = 8
	warmOpts.Ckpt = ckpt.NewStore(dir, true)
	if got := run(warmOpts); got != clean {
		t.Fatal("warm 8-worker age sweep differs from clean run")
	}
	if c := warmOpts.Ckpt.Counters(); c.Hits != cells || c.Misses != 0 {
		t.Fatalf("warm counters %+v, want %d hits / 0 misses", c, cells)
	}
	closeStore(t, warmOpts.Ckpt)
}

// TestTable2CheckpointResume covers the Bayes-cell key path and the
// Net-pointer reattachment after a cached replay.
func TestTable2CheckpointResume(t *testing.T) {
	opts := tinyOpts()
	var clean bytes.Buffer
	if _, err := Table2(&clean, opts); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	freshOpts := opts
	freshOpts.Ckpt = ckpt.NewStore(dir, false)
	var fresh bytes.Buffer
	if _, err := Table2(&fresh, freshOpts); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != clean.String() {
		t.Fatal("fresh cached Table 2 differs from uncached")
	}
	closeStore(t, freshOpts.Ckpt)

	warmOpts := opts
	warmOpts.Ckpt = ckpt.NewStore(dir, true)
	var warm bytes.Buffer
	rows, err := Table2(&warm, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.String() != clean.String() {
		t.Fatal("warm Table 2 differs from uncached")
	}
	if c := warmOpts.Ckpt.Counters(); c.Hits != 4 || c.Misses != 0 {
		t.Fatalf("warm counters %+v, want 4 hits / 0 misses", c)
	}
	for i, r := range rows {
		if r.Net == nil {
			t.Fatalf("row %d lost its network pointer on the cached path", i)
		}
	}
	closeStore(t, warmOpts.Ckpt)
}

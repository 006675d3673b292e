package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// childEnv marks a process the benchmark started as one of its own
// children, so a test binary can run the child modes too.
const childEnv = "NSCC_BENCHMARK_CHILD"

// sweepReport is what a sweep child prints: the wall-clock stamps the
// parent turns into cells/s and set-up time, the speed probe's verdict,
// the part's verdict and output digest, and the runtime's allocation
// totals.
type sweepReport struct {
	StartNs    int64    `json:"start_ns"` // first SweepStart, Unix ns
	EndNs      int64    `json:"end_ns"`   // sweep returned, Unix ns
	ProbeNs    int64    `json:"probe_ns"` // time the speed probe took from the sweep
	Speed      float64  `json:"speed"`    // the thread's speed relative to the reference
	Cells      int      `json:"cells"`
	Failed     int      `json:"failed"`
	Problems   []string `json:"problems,omitempty"`
	Digest     string   `json:"digest"`
	ImprovePct float64  `json:"improve_pct"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Mallocs    uint64   `json:"mallocs"`
	NumGC      uint32   `json:"num_gc"`
}

// layersReport is what a layers child prints.
type layersReport struct {
	Counts counts        `json:"counts"`
	Micros []microResult `json:"micros"`
}

// meter is the sweep's exper.ProgressSink: it stamps the first
// SweepStart, starts the speed probe there, and counts cells.
type meter struct {
	mu      sync.Mutex
	start   time.Time
	probe   *speedProbe
	started int // cells announced by SweepStart
	done    int // cells reported by CellDone
}

func (m *meter) SweepStart(_ string, cells int) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.start.IsZero() {
		m.start = now
		m.probe = startProbe()
	}
	m.started += cells
}

func (m *meter) CellDone(string) {
	m.mu.Lock()
	m.done++
	m.mu.Unlock()
}

func (m *meter) SweepDone(string) {}

// finish stops the probe once the sweep has returned at end. A sweep
// that failed before it started reads as taking no time at the
// reference speed; its cells count as failed.
func (m *meter) finish(end time.Time) (start time.Time, busy time.Duration, speed float64) {
	if m.probe == nil {
		return end, 0, 1
	}
	busy, speed = m.probe.finish()
	return m.start, busy, speed
}

// childFlags are the settings a parent passes to its children.
type childFlags struct {
	mode       string
	workload   string
	seed       int64
	part       int
	tiny       bool
	cpuprofile string
}

func (c *childFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.mode, "child", "", "internal: run as a child, sweep or layers")
	fs.IntVar(&c.part, "part", 0, "internal: the part a sweep child runs")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "internal: write the sweep child's CPU profile here")
}

// runChild runs one child mode and returns its report.
func runChild(c childFlags) (interface{}, error) {
	wl, ok := workloadByName(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.part < 0 || c.part >= wl.parts {
		return nil, fmt.Errorf("%s has parts 0..%d, not %d", wl.name, wl.parts-1, c.part)
	}
	switch c.mode {
	case "sweep":
		return childSweep(wl, c)
	case "layers":
		return childLayers(wl, c)
	}
	return nil, fmt.Errorf("unknown child mode %q", c.mode)
}

// childSweep runs one part of the workload's sweep and checks it.
func childSweep(wl workload, c childFlags) (*sweepReport, error) {
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var m meter
	opts := baseOptions(c.seed)
	opts.Progress = &m
	h := sha256.New()
	o, err := wl.sweep(h, opts, c.part, c.tiny)
	end := time.Now()
	start, busy, speed := m.finish(end)
	if err != nil {
		o.fail(o.cells, "%v", err)
	}
	if m.started != o.cells || m.done != o.cells {
		o.fail(o.cells, "%d cells started and %d done, grid has %d", m.started, m.done, o.cells)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &sweepReport{
		StartNs: start.UnixNano(), EndNs: end.UnixNano(),
		ProbeNs: busy.Nanoseconds(), Speed: speed,
		Cells: o.cells, Failed: o.failed, Problems: o.problems,
		Digest:     hex.EncodeToString(h.Sum(nil)),
		ImprovePct: o.improvePct,
		AllocBytes: ms.TotalAlloc, Mallocs: ms.Mallocs, NumGC: ms.NumGC,
	}, nil
}

// childLayers runs the workload's representative cell and the layer
// micros, each micro sample 50 ms long, or one op at the test size.
func childLayers(wl workload, c childFlags) (*layersReport, error) {
	cnt, err := wl.cell(c.seed, c.tiny)
	if err != nil {
		return nil, fmt.Errorf("%s representative cell: %w", wl.name, err)
	}
	runtime.GC()
	testing.Init()
	benchtime := "50ms"
	if c.tiny {
		benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	micros, err := runMicros()
	if err != nil {
		return nil, err
	}
	return &layersReport{Counts: cnt, Micros: micros}, nil
}

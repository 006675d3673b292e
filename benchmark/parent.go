package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	workdir string
}

// childTimeout bounds every child, so a hung simulation fails the run
// instead of outliving it.
const childTimeout = 150 * time.Second

// jobs is the run's job count: the run length over the reference time
// of a part's two passes, and at least one. Job i runs part i mod parts
// of cycle i / parts. At the default -seconds every workload runs whole
// cycles; a shorter run covers the first parts only.
func (c runConfig) jobs() int {
	if c.tiny {
		return 1
	}
	return max(1, int(math.Round(c.seconds/(2*c.wl.partSeconds))))
}

// result is one run's verdict and metrics, and the record -out appends.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Jobs      int                `json:"jobs"`
	Digest    string             `json:"digest"` // job 0's output digest
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Raw holds the untraced times before host-speed scaling, and the
	// median host speed.
	Raw map[string]float64 `json:"raw,omitempty"`
}

// measure runs one workload once, untraced or traced.
func measure(c runConfig) (*result, error) {
	res := &result{Workload: c.wl.name, Seed: c.seed, Trace: c.trace, Jobs: c.jobs(), Metrics: map[string]float64{}}
	measureMode := measureUntraced
	if c.trace {
		measureMode = measureTraced
	}
	if err := measureMode(c, res); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// sweeps is one pass over a run's jobs, each in a child of its own.
// Times are per child: its sweep (first SweepStart to return), its
// user+sys CPU, both less the speed probe's share, and its set-up (exec
// to first SweepStart).
type sweeps struct {
	reports  []*sweepReport
	wall     []float64 // s
	cpu      []float64 // s
	setups   []float64 // s
	rss      []float64 // peak RSS, MiB
	speed    []float64 // the child's speed relative to the reference, from its probe
	profiles []string  // CPU profiles, when profiled
}

// runSweeps runs two passes over the run's jobs, one after the other.
// A traced run profiles the second pass. Both passes run the same
// inputs, so their digests must match job for job.
func runSweeps(c runConfig) (first, second *sweeps, err error) {
	first, second = &sweeps{}, &sweeps{}
	if c.trace {
		if err := os.MkdirAll(c.workdir, 0o755); err != nil {
			return first, second, err
		}
	}
	for i := 0; i < c.jobs(); i++ {
		if err := first.run(c, i, ""); err != nil {
			return first, second, err
		}
	}
	for i := 0; i < c.jobs(); i++ {
		p := ""
		if c.trace {
			p = filepath.Join(c.workdir, fmt.Sprintf("%s-%d-%d.cpu.pprof", c.wl.name, c.seed, i))
			second.profiles = append(second.profiles, p)
		}
		if err := second.run(c, i, p); err != nil {
			return first, second, err
		}
	}
	return first, second, nil
}

// run runs job i in a child, under the CPU profiler when profile names
// a file, and records it.
func (s *sweeps) run(c runConfig, i int, profile string) error {
	args := []string{"-child", "sweep", "-seed", strconv.FormatInt(repSeed(c.seed, i/c.wl.parts), 10),
		"-part", strconv.Itoa(i % c.wl.parts)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	var rep sweepReport
	begin := time.Now()
	ps, err := spawn(c, &rep, args...)
	if err != nil {
		return err
	}
	usage, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return fmt.Errorf("no resource usage for the sweep child")
	}
	probe := float64(rep.ProbeNs) / 1e9
	s.reports = append(s.reports, &rep)
	s.wall = append(s.wall, float64(rep.EndNs-rep.StartNs)/1e9-probe)
	s.cpu = append(s.cpu, timeval(usage.Utime)+timeval(usage.Stime)-probe)
	s.setups = append(s.setups, float64(rep.StartNs-begin.UnixNano())/1e9)
	s.rss = append(s.rss, float64(usage.Maxrss)/1024) // Linux reports KiB
	s.speed = append(s.speed, rep.Speed)
	return nil
}

// scaled returns xs at the reference speed: each child's time times
// the speed its probe measured.
func (s *sweeps) scaled(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * s.speed[i]
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// fastest sums, over jobs, the smaller of each job's two passes' times.
func fastest(first, second []float64) float64 {
	var t float64
	for i := range first {
		t += math.Min(first[i], second[i])
	}
	return t
}

// both is the two passes' values in one new slice.
func both(first, second []float64) []float64 {
	return append(append([]float64(nil), first...), second...)
}

// cells is the cell count over every child.
func (s *sweeps) cells() float64 {
	var n int
	for _, r := range s.reports {
		n += r.Cells
	}
	return float64(n)
}

// cellsPerSecond is the throughput over the children's sweeps at the
// reference host speed.
func (s *sweeps) cellsPerSecond() float64 {
	return s.cells() / sum(s.scaled(s.wall))
}

// add folds both passes' verdicts into the run's. A job whose two
// passes differ in output is nondeterministic, and fails every cell.
func (r *result) add(first, second *sweeps) {
	for _, s := range []*sweeps{first, second} {
		for _, rep := range s.reports {
			r.Attempted += rep.Cells
			r.Failed += rep.Failed
			r.Problems = append(r.Problems, rep.Problems...)
		}
	}
	r.Digest = first.reports[0].Digest
	for i, rep := range first.reports {
		if rep.Digest != second.reports[i].Digest {
			r.Failed = r.Attempted
			r.Problems = append(r.Problems, fmt.Sprintf("job %d: the passes' digests differ (nondeterminism)", i))
		}
	}
}

// measureUntraced takes the end-to-end metrics, at the reference host
// speed. A burst too short for the probe to follow only ever slows a
// child down, so each job's wall and CPU time is its faster pass's.
// Peak RSS and set-up time are medians over every child, which GC
// timing and process start-up jitter would otherwise make noisy.
func measureUntraced(c runConfig, res *result) error {
	first, second, err := runSweeps(c)
	if err != nil {
		return err
	}
	res.add(first, second)
	cells := first.cells()
	res.Metrics["cells_per_s"] = cells / fastest(first.scaled(first.wall), second.scaled(second.wall))
	res.Metrics["cpu_s_per_cell"] = fastest(first.scaled(first.cpu), second.scaled(second.cpu)) / cells
	res.Metrics["peak_rss_mb"] = median(both(first.rss, second.rss))
	res.Metrics["setup_s"] = median(both(first.scaled(first.setups), second.scaled(second.setups)))
	res.Raw = map[string]float64{
		"cells_per_s":    cells / fastest(first.wall, second.wall),
		"cpu_s_per_cell": fastest(first.cpu, second.cpu) / cells,
		"setup_s":        median(both(first.setups, second.setups)),
		"host_speed":     median(both(first.speed, second.speed)),
	}
	return nil
}

// measureTraced takes the per-layer metrics: a plain and a profiled
// pass over the same jobs, then the representative cell and the layer
// micros.
func measureTraced(c runConfig, res *result) error {
	plain, traced, err := runSweeps(c)
	defer func() {
		for _, p := range traced.profiles {
			os.Remove(p)
		}
	}()
	if err != nil {
		return err
	}
	res.add(plain, traced)

	shares, err := foldProfiles(traced.profiles)
	if err != nil {
		return err
	}
	for k, v := range shares {
		res.Metrics[k] = v
	}
	cps := plain.cellsPerSecond()
	res.Metrics["trace.overhead_pct"] = (cps - traced.cellsPerSecond()) / cps * 100
	var alloc, mallocs, gcs float64
	for _, rep := range plain.reports {
		alloc += float64(rep.AllocBytes)
		mallocs += float64(rep.Mallocs)
		gcs += float64(rep.NumGC)
	}
	res.Metrics["runtime.alloc_mb_per_cell"] = alloc / (1 << 20) / plain.cells()
	res.Metrics["runtime.mallocs_per_cell"] = mallocs / plain.cells()
	res.Metrics["runtime.gc_per_cell"] = gcs / plain.cells()

	var layers layersReport
	if _, err := spawn(c, &layers, "-child", "layers", "-seed", strconv.FormatInt(c.seed, 10)); err != nil {
		return err
	}
	for _, m := range countMetrics {
		res.Metrics[m.name] = layers.Counts[m.name]
	}
	res.Metrics["exper.gr_improve_pct"] = plain.reports[0].ImprovePct
	for _, m := range layers.Micros {
		res.Metrics[m.Name+"_ns"] = m.Ns
		res.Metrics[m.Name+"_allocs"] = m.Allocs
	}
	return nil
}

// spawn runs this binary as a child of the run's workload with args,
// waits for it to exit, and decodes its JSON report.
func spawn(c runConfig, report interface{}, args ...string) (*os.ProcessState, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-workload", c.wl.name, "-tiny=" + strconv.FormatBool(c.tiny)}, args...)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	// One P: with a single worker, a second P only adds idle-P wake-ups
	// to every simulated process handoff, which made sweeps ~12% slower
	// and about twice as noisy on the reference box. A sweep that fills
	// every core has no idle P either.
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(out.Bytes(), report); err != nil {
		return nil, fmt.Errorf("child %v: bad report: %w", args, err)
	}
	return cmd.ProcessState, nil
}

func timeval(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// print writes the run's metrics, one per line with its unit, then the
// result line: the last line of the output, one JSON object.
func (r *result) print(w io.Writer) error {
	mode, units := "untraced", endToEnd
	if r.Trace {
		mode, units = "traced", perLayer()
	}
	fmt.Fprintf(w, "workload %s seed %d jobs %d %s\n", r.Workload, r.Seed, r.Jobs, mode)
	fmt.Fprintf(w, "digest %s\n", r.Digest)
	if r.Raw != nil {
		fmt.Fprintf(w, "host speed %.3f of the reference; unscaled: %.6g cells/s, %.6g CPU s/cell, %.6g s set-up\n",
			r.Raw["host_speed"], r.Raw["cells_per_s"], r.Raw["cpu_s_per_cell"], r.Raw["setup_s"])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	type valued struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]valued `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valued{}}
	for _, m := range units {
		v := r.Metrics[m.name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, v, m.unit)
		line.Metrics[m.name] = valued{v, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// append adds the run's record to path as one JSON line (no-op when
// path is empty).
func (r *result) append(path string) error {
	if path == "" {
		return nil
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

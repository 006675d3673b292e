// Package cli declares the flags the simulation commands share, each
// once, with its checks and the rules that tie flags together, and the
// set-up and output code around a run: the fault plan, the cluster
// options, the live status server, the sweep cache and the atomic
// artifact writers. Each command registers the groups it takes and
// keeps its own flags and run logic.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nscc/internal/ckpt"
	"nscc/internal/cluster"
	"nscc/internal/core"
	"nscc/internal/exper"
	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/obs"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/traceio"
)

// Has names the groups of shared flags a command takes beyond the five
// every command takes: -faults, -reliable, -read-timeout, -simrace and
// -http.
type Has uint

const (
	Switch     Has = 1 << iota // -switch
	Load                       // -load
	SimRaceOut                 // -simrace-out
	Mode                       // -mode and -age
	Func                       // -func
	Sweep                      // -trials, -workers, -csv, -cache-dir, -resume and -loss
)

// Flags holds the shared flags' values after flag.Parse, and what Check
// and Start derive from them. A flag the command does not take keeps
// its zero value.
type Flags struct {
	Faults      string
	Reliable    bool
	ReadTimeout time.Duration
	SimRace     bool
	HTTP        string
	Switch      bool
	Load        float64
	SimRaceOut  string
	ModeName    string
	Age         int64
	Func        int
	Trials      int
	Workers     int
	CSV         string
	CacheDir    string
	Resume      bool
	Loss        float64

	// Hier, if a command sets it before Check, puts the run on the
	// rack/spine fabric (nscc-ga's -hier).
	Hier *netsim.HierConfig

	Mode    core.Mode    // the -mode, parsed by Check
	Cluster cluster.Spec // the fabric and cluster.Options (with the -faults plan), filled by Check

	Server *obs.Server // the -http server, started by Start
	Store  *ckpt.Store // the -cache-dir store, opened by Start

	has Has
}

// Register declares on the default flag set the five flags every
// command takes and the groups in has. usage replaces, by flag name,
// the help text of a flag whose reach differs in this command.
func Register(has Has, usage map[string]string) *Flags {
	f := &Flags{has: has}
	text := func(name, def string) string {
		if u, ok := usage[name]; ok {
			return u
		}
		return def
	}
	flag.StringVar(&f.Faults, "faults", "", text("faults", "apply the fault plan in this JSON file to every simulated cluster"))
	flag.BoolVar(&f.Reliable, "reliable", false, text("reliable", "use sequence-numbered ack/retransmit message delivery"))
	flag.DurationVar(&f.ReadTimeout, "read-timeout", 0, text("read-timeout", "bound Global_Read blocking in virtual time (e.g. 50ms; 0 = wait forever)"))
	flag.BoolVar(&f.SimRace, "simrace", false, text("simrace", "classify every cross-process read with the simulated-time race checker"))
	flag.StringVar(&f.HTTP, "http", "", text("http", "serve the live status page, OpenMetrics /metrics, and /debug/pprof on this address (e.g. :8080); strictly observer-side, results are unchanged"))
	if has&Switch != 0 {
		flag.BoolVar(&f.Switch, "switch", false, text("switch", "run on the SP2-style crossbar switch instead of the shared Ethernet"))
	}
	if has&Load != 0 {
		flag.Float64Var(&f.Load, "load", 0, text("load", "background loader rate in bits/s (0 = unloaded)"))
	}
	if has&SimRaceOut != 0 {
		flag.StringVar(&f.SimRaceOut, "simrace-out", "", text("simrace-out", "write the per-location race report JSON to this file (requires -simrace; feed it to nscc-lint -simrace-report)"))
	}
	if has&Mode != 0 {
		flag.StringVar(&f.ModeName, "mode", "global_read", text("mode", "sync, async, or global_read"))
		flag.Int64Var(&f.Age, "age", 10, text("age", "Global_Read staleness bound (generations)"))
	}
	if has&Func != 0 {
		flag.IntVar(&f.Func, "func", 1, text("func", "test function number (1..8, Table 1)"))
	}
	if has&Sweep != 0 {
		flag.IntVar(&f.Trials, "trials", 0, text("trials", "override trial count"))
		flag.IntVar(&f.Workers, "workers", 0, text("workers", "sweep worker pool size (0 = GOMAXPROCS)"))
		flag.StringVar(&f.CSV, "csv", "", text("csv", "also write results as CSV files into this directory"))
		flag.StringVar(&f.CacheDir, "cache-dir", "", text("cache-dir", "journal every completed sweep cell into crash-safe per-sweep journals under this directory"))
		flag.BoolVar(&f.Resume, "resume", false, text("resume", "replay cells already journaled in -cache-dir instead of recomputing them (requires -cache-dir)"))
		flag.Float64Var(&f.Loss, "loss", 0, text("loss", "override the Ethernet model's per-frame loss probability (the bus only: not with -switch)"))
	}
	return f
}

// Check rejects the shared flags' values no run can use, loads the
// fault plan, parses -mode and fills Cluster, all before anything
// starts. Its error is one line that names the flag. sync says whether
// a run the command selects has a Sync cell (see dropRule).
func (f *Flags) Check(sync bool) error {
	switch {
	case f.ReadTimeout < 0:
		return fmt.Errorf("-read-timeout %v: want at least 0 (0 waits forever)", f.ReadTimeout)
	case !(f.Loss >= 0 && f.Loss <= 1):
		return fmt.Errorf("-loss %v: want a probability in [0,1]", f.Loss)
	case f.Switch && f.Loss > 0:
		return fmt.Errorf("-loss %v with -switch: the switch has no loss model, so -loss applies only to the bus", f.Loss)
	case f.Switch && f.Hier != nil:
		return errors.New("-hier with -switch: a run has one fabric, so pick the rack/spine fabric or the switch")
	case f.Resume && f.CacheDir == "":
		return errors.New("-resume requires -cache-dir")
	case f.SimRaceOut != "" && !f.SimRace:
		return errors.New("-simrace-out requires -simrace")
	case f.has&Func != 0 && (f.Func < 1 || f.Func > 8):
		return fmt.Errorf("-func %d: want a Table 1 function, 1..8", f.Func)
	case f.Age < 0:
		return fmt.Errorf("-age %d: want a staleness bound of at least 0", f.Age)
	case f.Trials < 0:
		return fmt.Errorf("-trials %d: want at least 0 (0 keeps the default)", f.Trials)
	case f.Workers < 0:
		return fmt.Errorf("-workers %d: want at least 0 (0 = GOMAXPROCS)", f.Workers)
	}
	if f.has&Mode != 0 {
		if f.Mode = parseMode(f.ModeName); f.Mode < 0 {
			return fmt.Errorf("-mode %q: want sync, async or global_read", f.ModeName)
		}
	}
	var plan *faults.Plan
	if f.Faults != "" {
		var err error
		if plan, err = faults.LoadFile(f.Faults); err != nil {
			return fmt.Errorf("-faults: %v", err)
		}
	}
	f.Cluster = cluster.Spec{Hier: f.Hier, LoaderBps: f.Load, Options: cluster.Options{
		Faults:      plan,
		Reliable:    f.Reliable,
		ReadTimeout: sim.Duration(f.ReadTimeout.Nanoseconds()),
		RaceCheck:   f.SimRace,
	}}
	if f.Switch {
		sw := netsim.DefaultSwitchConfig()
		f.Cluster.Switch = &sw
	}
	if err := f.Cluster.Validate(); err != nil {
		return fmt.Errorf("-load: %v", err)
	}
	return f.dropRule(sync)
}

// parseMode returns the coherence mode name names, or -1.
func parseMode(name string) core.Mode {
	for _, m := range []core.Mode{core.Sync, core.Async, core.NonStrict} {
		if m.String() == name {
			return m
		}
	}
	return -1
}

// dropRule refuses a run that would wait forever or read a stale
// verdict. The plain transport never resends a lost message, so a Sync
// barrier, or a Global_Read with no timeout, waits for it forever.
// When the fabric can lose frames (a plan that drops messages, or bus
// -loss), a command whose selected runs have a Sync cell, or whose
// -mode run waits on every message, needs -reliable. The plain
// transport also delivers a duplicated frame twice, and a Sync
// barrier can take the copy of an old message for the current one, so
// a run with a Sync cell under a plan that duplicates frames needs
// -reliable too.
func (f *Flags) dropRule(sync bool) error {
	plan, single := f.Cluster.Faults, f.has&Mode != 0
	sync = sync || single && f.Mode == core.Sync
	var cause string
	switch {
	case f.Reliable:
		return nil
	case plan.Drops():
		cause = "-faults: the plan drops messages"
	case f.Loss > 0:
		cause = fmt.Sprintf("-loss %v: the bus loses frames", f.Loss)
	case sync && plan.Repeats():
		return errors.New("-faults: the plan duplicates messages, and the sync run's barrier can read a stale copy unless -reliable discards it")
	default:
		return nil
	}
	switch {
	case sync:
		return fmt.Errorf("%s, and the sync run waits forever for a lost one unless -reliable resends it", cause)
	case single && f.Mode == core.NonStrict && f.ReadTimeout == 0:
		return fmt.Errorf("%s, and the global_read run waits forever for a lost one unless -reliable resends it or -read-timeout bounds the wait", cause)
	}
	return nil
}

// Start starts what a run reports to once every check has passed: the
// -http status server and the -cache-dir store. The caller defers
// Close.
func (f *Flags) Start() error {
	if f.HTTP != "" {
		srv, err := obs.Start(f.HTTP)
		if err != nil {
			return err
		}
		f.Server = srv
		mark := "" // the sweep commands mark their stderr meters "-- "
		if f.has&Sweep != 0 {
			mark = "-- "
		}
		fmt.Fprintf(os.Stderr, "%slive status on http://%s/ (/metrics, /debug/pprof/)\n", mark, srv.Addr())
	}
	if f.CacheDir != "" {
		f.Store = ckpt.NewStore(f.CacheDir, f.Resume)
	}
	return nil
}

// Close stops the status server, if Start started one.
func (f *Flags) Close() {
	if f.Server != nil {
		f.Server.Close()
	}
}

// Exper sets the sweep options the shared flags select: the trial
// override, the worker pool, the fabric, the fault and race settings,
// the cell cache and the progress sink. Call it after Start.
func (f *Flags) Exper(o *exper.Options) {
	if f.Trials > 0 {
		o.Trials = f.Trials
	}
	o.Workers, o.UseSwitch, o.LossProb = f.Workers, f.Switch, f.Loss
	c := f.Cluster.Options
	o.Faults, o.Reliable, o.ReadTimeout, o.SimRace = c.Faults, c.Reliable, c.ReadTimeout, c.RaceCheck
	o.Ckpt = f.Store
	if f.Server != nil {
		o.Progress = f.Server
	}
}

// CloseStore reports the -cache-dir store's hits and misses on stderr
// and to the status server, and closes it. Cache accounting stays off
// stdout, so a cached, resumed or uncached sweep prints the same bytes.
func (f *Flags) CloseStore() error {
	if f.Store == nil {
		return nil
	}
	c := f.Store.Counters()
	if f.Server != nil {
		f.Server.PublishCache(c)
	}
	fmt.Fprintf(os.Stderr, "-- cache: %d hits, %d misses, %d invalidated, %d torn (dir=%s)\n",
		c.Hits, c.Misses, c.Invalidated, c.TornRecords, f.Store.Dir())
	return f.Store.Close()
}

// WriteCSV writes the CSV artifact name into the -csv directory through
// the atomic writer, so the file appears complete or not at all and a
// flush or close error is returned, and names it on stdout. Without
// -csv it does nothing.
func (f *Flags) WriteCSV(name string, fill func(io.Writer) error) error {
	if f.CSV == "" {
		return nil
	}
	if err := os.MkdirAll(f.CSV, 0o755); err != nil {
		return err
	}
	path := filepath.Join(f.CSV, name)
	w, err := ckpt.CreateAtomic(path)
	if err != nil {
		return err
	}
	if err := fill(w); err != nil {
		w.Abort()
		return err
	}
	if err := w.Commit(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// WriteArtifacts writes a run's trace to traceOut and its telemetry v
// to metricsOut, each only when its path is set (and, for the trace,
// rec is non-nil), and names each file on stdout.
func WriteArtifacts(traceOut string, rec *trace.Recorder, metricsOut string, v any) error {
	if err := traceio.WriteTrace(traceOut, rec); err != nil {
		return err
	}
	if traceOut != "" && rec != nil {
		fmt.Printf("wrote %s (%d events)\n", traceOut, rec.Len())
	}
	if err := traceio.WriteMetrics(metricsOut, v); err != nil {
		return err
	}
	if metricsOut != "" {
		fmt.Printf("wrote %s\n", metricsOut)
	}
	return nil
}

// ExitIf prints err on one stderr line and exits with code; a nil err
// does nothing.
func ExitIf(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

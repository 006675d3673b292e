// Package cluster builds the simulated cluster every workload runs on —
// the engine, the fabric with its optional fault wrap, the PVM machine,
// the warp meter, the background loader and the race checker — and
// folds each run into one Stats: completion, traffic, warp, Global_Read
// blocking and the telemetry block. The GA, belief-network and graph
// runners differ only in the tasks they spawn on it.
package cluster

import (
	"fmt"
	"math"

	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
	"nscc/internal/simrace"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// Options are a run's fault and observation settings. Each runner's
// config embeds them.
type Options struct {
	// Faults, if non-nil, wraps the fabric in the fault injector and
	// applies the plan's loss/delay/reorder/duplicate/crash/partition
	// schedules to the run. Nil leaves the fabric untouched (the fault
	// layer is strictly opt-in). The Sync barriers and exit protocols
	// rely on per-pair in-order delivery; under reordering plans run
	// Reliable, which restores it.
	Faults *faults.Plan
	// Reliable runs the message layer with sequence-numbered
	// ack/retransmit delivery (pvm.Config.Reliable). It composes with
	// a PVM override: when both are set, Reliable overrides its flag.
	Reliable bool
	// ReadTimeout, if positive, bounds Global_Read blocking
	// (core.Options.ReadTimeout): a read that cannot meet its bound in
	// time degrades to the cached value and counts a staleness
	// violation instead of deadlocking on a lost update. Negative is an
	// error.
	ReadTimeout sim.Duration
	// Tracer, if set, receives the run's full event stream (sim process
	// lifecycle, network frames, messages, Global_Reads and the
	// workload's own spans). Nil keeps every hot path on its zero-cost
	// branch.
	Tracer trace.Tracer
	// RaceCheck runs the simulated-time race classifier over the run and
	// fills Telemetry.Races. The checker is strictly passive: virtual
	// time, message order and the result are identical with it on or
	// off.
	RaceCheck bool
	// Series, if set, records the run's windowed simulated-time series
	// (core staleness/timeouts, pvm queue depth/retransmits, net busy
	// time/drops, gauge "pvm.warp" copied from the warp series, and the
	// workload's own series) into the given set and exports them in
	// Telemetry.Series. Strictly observational.
	Series *tseries.Set
}

// Spec describes one cluster: the run's seed, its fabric and message
// layer, and its Options.
type Spec struct {
	Seed int64
	// Net overrides the bus model (nil = netsim.DefaultConfig()).
	Net *netsim.Config
	// Switch, if set, runs on the SP2-style crossbar switch instead of
	// the bus.
	Switch *netsim.SwitchConfig
	// Hier, if set, runs on the rack/spine fabric. It takes precedence
	// over Switch.
	Hier *netsim.HierConfig
	// PVM overrides the messaging overheads (nil = pvm.DefaultConfig()).
	PVM *pvm.Config
	// LoaderBps, if positive, runs the background network loader at
	// this offered bit rate on two extra fabric nodes (§5.2). It may not
	// exceed the rate of the link the loader sends on, nor 1 Gbit/s.
	LoaderBps float64
	Options
}

// maxLoaderBps caps the loader's offered rate at a hundred times the
// paper's bus: above it the loader's send interval nears the engine's
// 1 ns resolution and a run's events are nearly all loader frames.
const maxLoaderBps = 1e9

// Validate reports the first setting of s no cluster can run: a fabric
// config that fails its own Validate, a negative read timeout, or a
// loader rate outside [0, 1 Gbit/s] or above the rate of its link. The
// loader is one host on the fabric, so it cannot offer more than its
// link carries: a rack bus on the rack/spine fabric, its switch link,
// or the bus.
func (s Spec) Validate() error {
	var err error
	link := netsim.DefaultConfig().BandwidthBps
	switch {
	case s.Hier != nil:
		err, link = s.Hier.Validate(), s.Hier.Bus.BandwidthBps
	case s.Switch != nil:
		err, link = s.Switch.Validate(), s.Switch.LinkBandwidthBps
	case s.Net != nil:
		err, link = s.Net.Validate(), s.Net.BandwidthBps
	}
	switch {
	case err != nil:
		return err
	case !(s.LoaderBps >= 0 && s.LoaderBps <= math.Min(link, maxLoaderBps)):
		return fmt.Errorf("cluster: loader rate %v bit/s is outside [0, %g], its link's rate capped at 1 Gbit/s",
			s.LoaderBps, math.Min(link, maxLoaderBps))
	case s.ReadTimeout < 0:
		return fmt.Errorf("cluster: read timeout %v is negative", s.ReadTimeout)
	}
	return nil
}

// Cluster is one built cluster. It runs once: spawn the tasks, give each
// a DSM node through Node and report its exit through Exit, then call
// Run.
type Cluster struct {
	eng     *sim.Engine
	net     netsim.Fabric
	machine *pvm.Machine
	warp    *metrics.WarpMeter
	races   *simrace.Checker
	opts    Options

	stats     Stats
	coreStats []core.Stats // per task id, filled at exit
	stale     metrics.Histogram
	exited    int
}

// Stats is a run's cluster-side result. Each runner's result embeds it.
type Stats struct {
	Completion  sim.Duration // virtual time at which the last task exited
	Messages    int64        // frames offered to the network
	NetBytes    int64        // bytes carried
	QueueDelay  sim.Duration // cumulative fabric queuing delay
	WarpMean    float64
	WarpMax     float64
	WarpWindows []float64    // per-100ms mean warp (instability time series)
	BlockedTime sim.Duration // total Global_Read blocking across tasks
	Blocked     int64        // blocking Global_Read count
	Coalesced   int64        // outbox updates overwritten before sending

	// Telemetry is the machine-readable observability block: per-task
	// message/coherence accounting, network aggregates, and the merged
	// observed-staleness histogram.
	Telemetry *metrics.Telemetry
}

// warpWindow is the width of the warp meter's windows.
const warpWindow = 100 * sim.Millisecond

// Build makes the cluster s describes, or returns Validate's error.
// Message pooling is on exactly when
// no fault plan wraps the fabric: fault duplication re-delivers one
// payload pointer twice, which would release a pooled message twice.
func Build(s Spec) (*Cluster, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(s.Seed)
	eng.SetTracer(s.Tracer)
	var net netsim.Fabric
	switch {
	case s.Hier != nil:
		net = netsim.NewHier(eng, *s.Hier)
	case s.Switch != nil:
		sw := netsim.NewSwitch(eng, *s.Switch)
		sw.SetSeries(s.Series)
		net = sw
	default:
		netCfg := netsim.DefaultConfig()
		if s.Net != nil {
			netCfg = *s.Net
		}
		bus := netsim.New(eng, netCfg)
		bus.SetSeries(s.Series)
		net = bus
	}
	if s.Faults != nil {
		net = faults.Wrap(net, s.Faults)
	}
	pvmCfg := pvm.DefaultConfig()
	if s.PVM != nil {
		pvmCfg = *s.PVM
	}
	if s.Reliable {
		pvmCfg.Reliable = true
	}
	pvmCfg.Pooling = s.Faults == nil
	machine := pvm.NewMachine(eng, net, pvmCfg)
	machine.SetSeries(s.Series)
	warp := metrics.NewWarpMeter(warpWindow)
	machine.ArrivalHook = func(dst int, m *pvm.Message) {
		warp.Observe(dst, m.Src, m.SentAt, m.ArrivedAt)
	}
	if s.LoaderBps > 0 {
		netsim.StartLoader(net, s.LoaderBps, 1024)
	}
	c := &Cluster{eng: eng, net: net, machine: machine, warp: warp, opts: s.Options}
	if s.RaceCheck {
		c.races = simrace.New(eng)
		c.races.Attach(machine)
	}
	return c, nil
}

// Spawn starts a task running fn on a fresh fabric node. Task ids are
// assigned densely from zero in spawn order.
func (c *Cluster) Spawn(name string, fn func(*pvm.Task)) { c.machine.Spawn(name, fn) }

// Node makes task's DSM node with opts plus the run's read timeout (when
// positive), series and race checker.
func (c *Cluster) Node(task *pvm.Task, opts core.Options) *core.Node {
	if c.opts.ReadTimeout > 0 {
		opts.ReadTimeout = c.opts.ReadTimeout
	}
	opts.Series = c.opts.Series
	if c.races != nil {
		opts.Races = c.races
	}
	return core.NewNode(task, opts)
}

// Exit records that node's task has finished: its Global_Read blocking
// and staleness join the run's, and its exit time is a completion
// candidate. The last task's exit stops the engine, which background
// processes such as the loader would otherwise keep running.
func (c *Cluster) Exit(node *core.Node) {
	task := node.Task()
	st := node.Stats()
	c.stats.BlockedTime += st.BlockedTime
	c.stats.Blocked += st.BlockedReads
	c.stats.Coalesced += st.Coalesced
	c.coreStats[task.ID()] = st
	c.stale.Merge(node.Staleness())
	if d := task.Now().Sub(0); d > c.stats.Completion {
		c.stats.Completion = d
	}
	c.exited++
	if c.exited == c.machine.Tasks() {
		c.eng.Stop()
	}
}

// Run runs the spawned tasks to their exits and returns the run's Stats,
// whose telemetry names the variant by mode and age. It closes the
// engine. On an engine error the Stats hold what the exits so far
// recorded.
func (c *Cluster) Run(mode core.Mode, age int64) (Stats, error) {
	defer c.eng.Close()
	c.coreStats = make([]core.Stats, c.machine.Tasks())
	if err := c.eng.Run(); err != nil {
		return c.stats, err
	}
	s := c.stats
	st := c.net.Stats()
	s.Messages, s.NetBytes, s.QueueDelay = st.Frames, st.Bytes, st.QueueDelay
	s.WarpMean, s.WarpMax, s.WarpWindows = c.warp.Mean(), c.warp.Max(), c.warp.Windows()

	tasks := c.machine.TaskTelemetry()
	var violations int64
	for i, cs := range c.coreStats {
		tasks[i].GlobalReads = cs.GlobalReads
		tasks[i].BlockedReads = cs.BlockedReads
		tasks[i].BlockedSecs = cs.BlockedTime.Seconds()
		tasks[i].ReadTimeouts = cs.ReadTimeouts
		violations += cs.ReadTimeouts
	}
	s.Telemetry = &metrics.Telemetry{
		Variant:             mode.String(),
		Age:                 age,
		CompletionSecs:      s.Completion.Seconds(),
		Tasks:               tasks,
		Net:                 st.Telemetry(c.eng.Now().Sub(0)),
		Staleness:           c.stale.Summary(),
		WarpMean:            s.WarpMean,
		WarpMax:             s.WarpMax,
		StalenessViolations: violations,
	}
	if c.races != nil {
		s.Telemetry.Races = c.races.Telemetry()
		s.Telemetry.RaceLocations = c.races.Report().Locations
	}
	if set := c.opts.Series; set != nil {
		// Copy the warp series into the set as gauge "pvm.warp" (one
		// sample per window, at the window's start) so the export
		// carries warp alongside the other windowed series.
		serWarp := set.Gauge("pvm.warp")
		for w, v := range s.WarpWindows {
			serWarp.Add(sim.Time(int64(w)*int64(warpWindow)), v)
		}
		s.Telemetry.Series = set.Summaries()
	}
	return s, nil
}

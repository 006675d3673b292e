// Option-space pins: one SHA-256 digest per (runner, setting) over the
// run's every result field, its Telemetry as JSON and its recorded
// trace events. The golden sweeps run each workload on a plain bus
// with nothing observed; these settings cover what they leave out —
// the observers, a fault plan with the reliable transport and bounded
// reads, the switch, the background loader and the rack/spine fabric.
// The cluster a runner builds shows in these bytes down to its
// construction order: the loader attaches two fabric nodes and spawns a
// process before any task, so node ids and spawn order follow it.
package nscc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"nscc/internal/bayes"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/graph"
	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/trace"
	"nscc/internal/tseries"
)

// pinSettings are the option-space corners each runner is pinned at.
// The loader pins the GA and the sampler (graph runs take no loader)
// and the rack/spine fabric pins the GA only.
var pinSettings = []string{"plain", "observed", "faulty", "switch", "loader", "hier"}

// pinObservers is the observed setting's attachments: a recording
// tracer, the race checker and a series set.
type pinObservers struct {
	rec  *trace.Recorder
	race bool
	ser  *tseries.Set
}

func newPinObservers(setting string) pinObservers {
	if setting != "observed" && setting != "faulty" {
		return pinObservers{}
	}
	return pinObservers{rec: trace.NewRecorder(), race: true, ser: tseries.NewSet(tseries.DefaultWindow)}
}

// pinDigest renders the run's result fields (already written to h by the
// caller), its telemetry and its trace events into one hex digest.
func pinDigest(t *testing.T, h hash.Hash, tel *metrics.Telemetry, rec *trace.Recorder) string {
	t.Helper()
	data, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	if rec != nil {
		for _, e := range rec.Events() {
			fmt.Fprintf(h, "\n%d %d %d %d %d %s %s %s %d %s %d",
				e.TS, e.Dur, e.Ph, e.Pid, e.Tid, e.Cat, e.Name, e.K1, e.V1, e.K2, e.V2)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func pinGA(t *testing.T, setting string) (string, bool) {
	cfg := ga.IslandConfig{
		Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
		Mode: core.NonStrict, Age: 5,
		FixedGens: 30, MinGens: 30, MaxGens: 120, Target: 0.3,
		Seed: 41, Calib: ga.DefaultCalibration(),
	}
	obs := newPinObservers(setting)
	if obs.rec != nil {
		cfg.Tracer = obs.rec
	}
	cfg.RaceCheck, cfg.Series = obs.race, obs.ser
	switch setting {
	case "faulty":
		cfg.Faults = faults.RandomPlan(41, 4, 2.0)
		cfg.Reliable = true
		cfg.ReadTimeout = 50 * sim.Millisecond
	case "switch":
		sw := netsim.DefaultSwitchConfig()
		cfg.Switch = &sw
	case "loader":
		cfg.LoaderBps = 2e6
	case "hier":
		h := netsim.DefaultHierConfig()
		h.RackSize = 2
		cfg.Hier = &h
	}
	res, err := ga.RunIsland(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v %v %v %v %v %v %v|%v %v %v %v %v %v %v %v %v\n",
		res.Completion, res.Best, res.FinalBest, res.Avg, res.Gens, res.OptimumFound, res.ReachedTarget,
		res.Messages, res.NetBytes, res.QueueDelay, res.WarpMean, res.WarpMax, res.WarpWindows,
		res.BlockedTime, res.Blocked, res.Coalesced)
	return pinDigest(t, h, res.Telemetry, obs.rec), true
}

func pinBayes(t *testing.T, setting string) (string, bool) {
	bn := bayes.Table2Networks()[0]
	cfg := bayes.ParallelConfig{
		Net: bn, Query: bayes.DefaultQuery(bn), P: 2,
		Mode: core.NonStrict, Age: 10,
		Precision: 0.1, MaxIters: 2000,
		Seed: 43, Calib: bayes.DefaultCalibration(),
	}
	obs := newPinObservers(setting)
	if obs.rec != nil {
		cfg.Tracer = obs.rec
	}
	cfg.RaceCheck, cfg.Series = obs.race, obs.ser
	switch setting {
	case "faulty":
		cfg.Faults = faults.RandomPlan(43, 2, 2.0)
		cfg.Reliable = true
		cfg.ReadTimeout = 50 * sim.Millisecond
	case "switch":
		sw := netsim.DefaultSwitchConfig()
		cfg.SwitchCfg = &sw
	case "loader":
		cfg.LoaderBps = 2e6
	case "hier":
		return "", false
	}
	res, err := bayes.RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v %v %v %v %v %v|%v %v %v %v %v|%v %v %v %v %v %v %v %v|%v\n",
		res.Prob, res.HalfWidth, res.Iters, res.Accepted, res.Completion, res.ReachedPrecision,
		res.Rollbacks, res.Replayed, res.Gambles, res.Conflicts, res.Retracts,
		res.Messages, res.NetBytes, res.QueueDelay, res.BlockedTime, res.Blocked,
		res.WarpMean, res.WarpMax, res.WarpWindows, res.EdgeCut)
	return pinDigest(t, h, res.Telemetry, obs.rec), true
}

func pinGraph(t *testing.T, setting string) (string, bool) {
	g, err := graph.Random(200, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := graph.Config{
		G: g, Algo: graph.PageRank, P: 4,
		Mode: core.NonStrict, Age: 5,
		MaxSupersteps: 400,
		Seed:          47, Calib: graph.DefaultCalibration(),
	}
	obs := newPinObservers(setting)
	if obs.rec != nil {
		cfg.Tracer = obs.rec
	}
	cfg.RaceCheck, cfg.Series = obs.race, obs.ser
	switch setting {
	case "faulty":
		cfg.Faults = faults.RandomPlan(47, 4, 2.0)
		cfg.Reliable = true
		cfg.ReadTimeout = 50 * sim.Millisecond
	case "switch":
		sw := netsim.DefaultSwitchConfig()
		cfg.Switch = &sw
	case "loader", "hier":
		return "", false
	}
	res, err := graph.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v %v %v %v %v|%v %v %v %v %v %v %v\n",
		res.Values, res.Completion, res.Supersteps, res.Converged, res.Residual,
		res.Messages, res.NetBytes, res.QueueDelay, res.WarpMean, res.WarpMax,
		res.BlockedTime, res.Blocked)
	return pinDigest(t, h, res.Telemetry, obs.rec), true
}

// optionSpacePins are the digests; a change that moves one changed what
// a run computes, reports or traces at that corner.
var optionSpacePins = map[string]string{
	"ga/plain":       "630585a60d108fb46514ca23c570e719743b1ff20a0aaf502f6cd4f4d382e6a6",
	"ga/observed":    "fa9ac516924d0f6d3407e013fe14802f605c3d328f150bc007b7e646aa0ec172",
	"ga/faulty":      "8565c94c52313cdeaae1cb1b0674d9057bd29bf58c99e54a43788fbc78575e6e",
	"ga/switch":      "25dffb489a01a6c0e0274561b67f2f9503031822e8a70c352a7b82efbd4c9fac",
	"ga/loader":      "6532da6bc964b5a71fbd5ad31e54ba32f03d1330ccbc9a80bc81e2b6d81dc4ff",
	"ga/hier":        "a6cfef06e60f5516efb6417f0391253f93f128d5dc59e671fce9e1a3f4932e9d",
	"bayes/plain":    "64c0e344c4eda6365c2a8d17dbac09ce1ddd2bfd440f79640e972bdb28571ab8",
	"bayes/observed": "e648685664cdbe732a539818b1b4e57946f9e94f8a3da526ac4957b368402245",
	"bayes/faulty":   "74864ab84389c0302d8f7b37e45905455d89466b73bbb5b096899d22caa0ee2c",
	"bayes/switch":   "b31740eb720e9ffaa864e16a5f13ca49acbbf24ab3886d12d5f2be50e2827035",
	"bayes/loader":   "df14544059f8cba08150e4c56b3cb5fc7149437308d05acd94cb95652be7df2d",
	"graph/plain":    "041eec7d2d3fc915a7219011e3bc90d34ca7b398a7e56be91f1c1ded5622498e",
	"graph/observed": "e7f9290500bdb2101bc3cacce6b806f537aabe430cdb8758461b7f0f35be05d8",
	"graph/faulty":   "f06f08166f610d198ecb459f80cb1bfab18a2873fd3b5accdc9869af09854404",
	"graph/switch":   "745400a9edb9bc0a19714fc47b4b38f6315554bc7be339588daf8b94f13887b7",
}

func TestOptionSpacePins(t *testing.T) {
	runners := []struct {
		name string
		run  func(*testing.T, string) (string, bool)
	}{{"ga", pinGA}, {"bayes", pinBayes}, {"graph", pinGraph}}
	for _, r := range runners {
		for _, setting := range pinSettings {
			name := r.name + "/" + setting
			t.Run(name, func(t *testing.T) {
				got, ok := r.run(t, setting)
				if !ok {
					t.Skip("setting not available to this runner")
				}
				if want := optionSpacePins[name]; got != want {
					t.Errorf("digest %s, pinned %s", got, want)
				}
			})
		}
	}
}

// Option-space pins: one SHA-256 digest per (runner, setting) over the
// run's every result field, its Telemetry as JSON and its recorded
// trace events. Each setting that records a trace has a second, quiet
// digest over the same bytes without the engine's per-event instants,
// so a change to which events the engine fires shows apart from a
// change to what a run computes, reports or traces otherwise. The
// golden sweeps run each workload on a plain bus with nothing
// observed; these settings cover what they leave out —
// the observers, a fault plan with bounded reads on the reliable
// transport and on the plain one (where duplicated frames reach the
// application), the switch, the background loader and the rack/spine
// fabric.
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
	"io"
	"testing"

	"nscc/internal/bayes"
	"nscc/internal/cluster"
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
var pinSettings = []string{"plain", "observed", "faulty", "lossy", "switch", "loader", "hier"}

// pinObservers is the observed setting's attachments: a recording
// tracer, the race checker and a series set.
type pinObservers struct {
	rec  *trace.Recorder
	race bool
	ser  *tseries.Set
}

func newPinObservers(setting string) pinObservers {
	if setting != "observed" && setting != "faulty" && setting != "lossy" {
		return pinObservers{}
	}
	return pinObservers{rec: trace.NewRecorder(), race: true, ser: tseries.NewSet(tseries.DefaultWindow)}
}

// pinFaults sets the faulty and lossy settings' fault stack: the seed's
// random plan over nodes with 50 ms bounded reads, on the reliable
// transport (faulty) or on the plain one with every frame of the first
// two seconds duplicated with probability 0.3 (lossy).
func pinFaults(o *cluster.Options, setting string, seed int64, nodes int) {
	o.Faults = faults.RandomPlan(seed, nodes, 2.0)
	o.ReadTimeout = 50 * sim.Millisecond
	if setting == "faulty" {
		o.Reliable = true
		return
	}
	o.Faults.Duplicates = append(o.Faults.Duplicates, faults.DuplicateWindow{From: 0, To: 2, Prob: 0.3})
}

// pinDigest renders the run's result line, its telemetry and its trace
// events into two hex digests: full over every trace event, and quiet
// over all but the engine's "sim"/"event" instants. Those name each
// fired event's sequence number, so they move whenever the engine fires
// a different set of events, even one that changes no outcome.
func pinDigest(t *testing.T, result string, tel *metrics.Telemetry, rec *trace.Recorder) (full, quiet string) {
	t.Helper()
	data, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	hf, hq := sha256.New(), sha256.New()
	for _, h := range []hash.Hash{hf, hq} {
		io.WriteString(h, result)
		h.Write(data)
	}
	if rec != nil {
		for _, e := range rec.Events() {
			line := fmt.Sprintf("\n%d %d %d %d %d %s %s %s %d %s %d",
				e.TS, e.Dur, e.Ph, e.Pid, e.Tid, e.Cat, e.Name, e.K1, e.V1, e.K2, e.V2)
			io.WriteString(hf, line)
			if e.Cat != "sim" || e.Name != "event" {
				io.WriteString(hq, line)
			}
		}
	}
	return hex.EncodeToString(hf.Sum(nil)), hex.EncodeToString(hq.Sum(nil))
}

func pinGA(t *testing.T, setting string) (full, quiet string, ok bool) {
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
	case "faulty", "lossy":
		pinFaults(&cfg.Options, setting, 41, 4)
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
	result := fmt.Sprintf("%v %v %v %v %v %v %v|%v %v %v %v %v %v %v %v %v\n",
		res.Completion, res.Best, res.FinalBest, res.Avg, res.Gens, res.OptimumFound, res.ReachedTarget,
		res.Messages, res.NetBytes, res.QueueDelay, res.WarpMean, res.WarpMax, res.WarpWindows,
		res.BlockedTime, res.Blocked, res.Coalesced)
	full, quiet = pinDigest(t, result, res.Telemetry, obs.rec)
	return full, quiet, true
}

func pinBayes(t *testing.T, setting string) (full, quiet string, ok bool) {
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
	case "faulty", "lossy":
		pinFaults(&cfg.Options, setting, 43, 2)
	case "switch":
		sw := netsim.DefaultSwitchConfig()
		cfg.SwitchCfg = &sw
	case "loader":
		cfg.LoaderBps = 2e6
	case "hier":
		return "", "", false
	}
	res, err := bayes.RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	result := fmt.Sprintf("%v %v %v %v %v %v|%v %v %v %v %v|%v %v %v %v %v %v %v %v|%v\n",
		res.Prob, res.HalfWidth, res.Iters, res.Accepted, res.Completion, res.ReachedPrecision,
		res.Rollbacks, res.Replayed, res.Gambles, res.Conflicts, res.Retracts,
		res.Messages, res.NetBytes, res.QueueDelay, res.BlockedTime, res.Blocked,
		res.WarpMean, res.WarpMax, res.WarpWindows, res.EdgeCut)
	full, quiet = pinDigest(t, result, res.Telemetry, obs.rec)
	return full, quiet, true
}

func pinGraph(t *testing.T, setting string) (full, quiet string, ok bool) {
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
	case "faulty", "lossy":
		pinFaults(&cfg.Options, setting, 47, 4)
	case "switch":
		sw := netsim.DefaultSwitchConfig()
		cfg.Switch = &sw
	case "loader", "hier":
		return "", "", false
	}
	res, err := graph.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	result := fmt.Sprintf("%v %v %v %v %v|%v %v %v %v %v %v %v\n",
		res.Values, res.Completion, res.Supersteps, res.Converged, res.Residual,
		res.Messages, res.NetBytes, res.QueueDelay, res.WarpMean, res.WarpMax,
		res.BlockedTime, res.Blocked)
	full, quiet = pinDigest(t, result, res.Telemetry, obs.rec)
	return full, quiet, true
}

// optionSpacePins are the digests; a change that moves one changed what
// a run computes, reports or traces at that corner.
var optionSpacePins = map[string]string{
	"ga/plain":       "630585a60d108fb46514ca23c570e719743b1ff20a0aaf502f6cd4f4d382e6a6",
	"ga/observed":    "7068d10b0001ea877ea7da3b1decda1f6742514c6a49117c5b1b4f72bc91c5a0",
	"ga/faulty":      "8be8c072fe21079b067fbb11adc57f165262e8a51f5a85f44e8f9bf950ad039b",
	"ga/lossy":       "3ae1fa6e213495ff166a3584569e630dfcd9cf35bf7e238aae669b9d0ac42fa5",
	"ga/switch":      "25dffb489a01a6c0e0274561b67f2f9503031822e8a70c352a7b82efbd4c9fac",
	"ga/loader":      "6532da6bc964b5a71fbd5ad31e54ba32f03d1330ccbc9a80bc81e2b6d81dc4ff",
	"ga/hier":        "a6cfef06e60f5516efb6417f0391253f93f128d5dc59e671fce9e1a3f4932e9d",
	"bayes/plain":    "64c0e344c4eda6365c2a8d17dbac09ce1ddd2bfd440f79640e972bdb28571ab8",
	"bayes/observed": "675a2a03f8849190398a12466837f4d4e4e788abe01d3d8ee09d844d1adbacc6",
	"bayes/faulty":   "87226d2fe8ad94f505d083dc7b8b898362e2961585e6564f49b2410798ad2741",
	"bayes/lossy":    "134e8aaf3af964e1422b82f79090bc71674f361a40ff8322561956611f639624",
	"bayes/switch":   "b31740eb720e9ffaa864e16a5f13ca49acbbf24ab3886d12d5f2be50e2827035",
	"bayes/loader":   "df14544059f8cba08150e4c56b3cb5fc7149437308d05acd94cb95652be7df2d",
	"graph/plain":    "041eec7d2d3fc915a7219011e3bc90d34ca7b398a7e56be91f1c1ded5622498e",
	"graph/observed": "241a12400f9a4ae1e87f965d357fd644d661f37013e1e0056013894ca335e36e",
	"graph/faulty":   "672c686b2f39d44bb72d7e8c6e348cb36345edf5818de5b3d5b08209f09c5e33",
	"graph/lossy":    "b9d0b655871fd82999f48391cfc95393dcc2892e92979c4dba7379b3497a0106",
	"graph/switch":   "745400a9edb9bc0a19714fc47b4b38f6315554bc7be339588daf8b94f13887b7",
}

// optionSpaceQuietPins are the quiet digests of the settings that
// record a trace. A change that moves a full digest but not its quiet
// one changed only which events the engine fires.
var optionSpaceQuietPins = map[string]string{
	"ga/observed":    "c52e248a3271848aac55f809dc4adc40eb553bcd4add5ef195698c62cebac7cc",
	"ga/faulty":      "1a5c4907622e89635790b34b040dfb3b12174baa4f65295b7775ade1d950c5af",
	"ga/lossy":       "25811656128354a1d16f1159c104fc4c2bf8b09d27f80fe69d0967e6813b45ed",
	"bayes/observed": "01ac396364dfde9a3df96b73c2f2f06ccc2d772c03ce2e761778bebe1702d2fd",
	"bayes/faulty":   "cd920f2e843bb56475db2e72ac5be28c94531ceb64bb23a62ea6b1e4d9886a7e",
	"bayes/lossy":    "b2e01da4710c685466653d77ee3ed9b0c943c3f64f16f60ca2fc64120602af76",
	"graph/observed": "024f03e4c50a2958dbabe54ff927202cbd7cc98fafe9786028186ba180bb27db",
	"graph/faulty":   "f58e5734d5c05b1d199aac256a717f0ed46936c84fad631f546406d9b7d758d7",
	"graph/lossy":    "2dcb9a4719d2689e22db2823a3a951eb97519db4221654f9991a01ed14fae7a4",
}

func TestOptionSpacePins(t *testing.T) {
	runners := []struct {
		name string
		run  func(*testing.T, string) (full, quiet string, ok bool)
	}{{"ga", pinGA}, {"bayes", pinBayes}, {"graph", pinGraph}}
	for _, r := range runners {
		for _, setting := range pinSettings {
			name := r.name + "/" + setting
			t.Run(name, func(t *testing.T) {
				full, quiet, ok := r.run(t, setting)
				if !ok {
					t.Skip("setting not available to this runner")
				}
				if want := optionSpacePins[name]; full != want {
					t.Errorf("digest %s, pinned %s", full, want)
				}
				want, traced := optionSpaceQuietPins[name]
				if !traced {
					want = full // no trace, so nothing to leave out
				}
				if quiet != want {
					t.Errorf("quiet digest %s, pinned %s", quiet, want)
				}
			})
		}
	}
}

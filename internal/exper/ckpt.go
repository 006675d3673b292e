package exper

import (
	"encoding/json"
	"fmt"

	"nscc/internal/bayes"
	"nscc/internal/ckpt"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/graph"
)

// ckptSchema versions the cached cell payloads. Bump it whenever a
// journaled struct (trialOut, bayesTrialOut, AgeSweep's refOut and
// cellOut, graphTrialOut, scaleTrialOut, Table2Row) or the semantics
// of a cell change, so stale journals invalidate instead of replaying
// wrong bytes.
const ckptSchema = 2

// sweepSpace fingerprints everything outside a cell's own coordinates
// that determines its result: the schema version, the sweep identity,
// and every Options knob that reaches the simulations. Trials, Procs,
// and Workers are deliberately absent — they select which cells exist
// (or how they are scheduled), not what any one cell computes, so a
// shortened or re-parallelized rerun still hits.
func (o Options) sweepSpace(sweep string) ckpt.Key {
	fp := ckpt.NewFingerprint("nscc/exper/space")
	fp.I64("schema", ckptSchema)
	fp.Str("sweep", sweep)
	fp.I64("seed", o.Seed)
	fp.I64("sync_gens", o.SyncGens)
	fp.F64("cap_factor", o.CapFactor)
	fp.F64("precision", o.Precision)
	fp.Bool("switch", o.UseSwitch)
	fp.Bool("reliable", o.Reliable)
	fp.I64("read_timeout", int64(o.ReadTimeout))
	fp.F64("loss", o.LossProb)
	fp.Bool("simrace", o.SimRace)
	if o.Faults != nil {
		// The plan is identified by its canonical JSON; a plan that
		// cannot marshal could not have been loaded in the first place.
		data, err := json.Marshal(o.Faults)
		if err != nil {
			panic(fmt.Sprintf("exper: fingerprint fault plan: %v", err))
		}
		fp.Str("faults", string(data))
	}
	return fp.Sum()
}

// cellFingerprint starts a cell key in the given sweep's coordinate
// space.
func cellFingerprint(sweep string) *ckpt.Fingerprint {
	fp := ckpt.NewFingerprint("nscc/exper/cell")
	fp.Str("sweep", sweep)
	return fp
}

// gaCellKey fingerprints one (function, P, load, trial) GA cell and
// its derived seed.
func gaCellKey(sweep string, fn *functions.Function, p int, load float64, trial int, seed int64) ckpt.Key {
	fp := cellFingerprint(sweep)
	fp.I64("fn", int64(fn.No))
	fp.I64("p", int64(p))
	fp.F64("load", load)
	fp.I64("trial", int64(trial))
	fp.I64("seed", seed)
	return fp.Sum()
}

// bayesCellKey fingerprints one (network, trial) inference cell.
func bayesCellKey(sweep string, bn *bayes.Network, trial int, seed int64) ckpt.Key {
	fp := cellFingerprint(sweep)
	fp.Str("net", bn.Name)
	fp.I64("trial", int64(trial))
	fp.I64("seed", seed)
	return fp.Sum()
}

// graphCellKey fingerprints one (topology, algorithm, trial) graph
// sweep cell on p partitions and its derived seed. The topology enters
// as its spec string — two sweeps over different topology lists share
// cells for the specs they have in common.
func graphCellKey(spec string, algo graph.Algo, p, trial int, seed int64) ckpt.Key {
	fp := cellFingerprint("graphsweep")
	fp.Str("topo", spec)
	fp.Str("algo", algo.String())
	fp.I64("p", int64(p))
	fp.I64("trial", int64(trial))
	fp.I64("seed", seed)
	return fp.Sum()
}

// scaleCellKey fingerprints one (nodes, topology, trial) scale sweep
// cell and its derived seed. The generation budget is not part of the
// key: it reaches the cell through Options.SyncGens, which the sweep
// space fingerprint already covers.
func scaleCellKey(nodes int, topo ga.Topology, trial int, seed int64) ckpt.Key {
	fp := cellFingerprint("scalesweep")
	fp.I64("nodes", int64(nodes))
	fp.Str("topo", topo.String())
	fp.I64("trial", int64(trial))
	fp.I64("seed", seed)
	return fp.Sum()
}

// ageCellKey fingerprints one (load, age, trial) age-sweep cell; the
// dynamic-age pseudo-point is distinguished from fixed age 1.
func ageCellKey(fn *functions.Function, p int, load float64, age int64, dynamic bool, trial int, seed int64) ckpt.Key {
	fp := cellFingerprint("agesweep-cells")
	fp.I64("fn", int64(fn.No))
	fp.I64("p", int64(p))
	fp.F64("load", load)
	fp.I64("age", age)
	fp.Bool("dynamic", dynamic)
	fp.I64("trial", int64(trial))
	fp.I64("seed", seed)
	return fp.Sum()
}

// Package analysis is the repository's static-analysis framework and
// its determinism-contract analyzers, shipped as the nscc-lint command.
//
// The simulator's reproducibility rests on a contract no compiler
// enforces: simulated code takes all time from the virtual clock
// (sim.Engine.Now), all randomness from engine-derived streams
// (Engine.NewRng, runner.DeriveSeed), schedules all concurrency through
// sim.Proc coroutines rather than raw goroutines, and never lets Go's
// randomized map iteration order reach an output or an aggregate. Any
// violation silently breaks byte-identical replay — the property every
// experiment, test, and sweep in this repository depends on — so the
// contract is enforced mechanically, by the four analyzers here:
//
//   - wallclock: no wall-clock time (time.Now, time.Since, time.Sleep,
//     timers) in simulation code. Host-side measurement code annotates
//     itself with a //nscc:wallclock directive.
//   - globalrand: no draws from math/rand's global source and no
//     constant-literal rand.NewSource or xrand.New seeds; randomness
//     must derive from a run's seed so replays agree.
//   - rawconc: no go statements, channels, select, or sync/atomic in
//     the simulated-process packages, where sim.Proc coroutines are
//     the only legal concurrency.
//   - maporder: no map iteration whose body appends to slices, writes
//     output, or sends — the iteration order would leak into results.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, want-comment fixture tests) but is built
// only on the standard library (go/ast, go/types, and the source
// importer), because this repository vendors nothing and builds
// offline. Packages under analysis come from `go list -json`;
// dependencies are type-checked from source through one shared
// importer so repeated loads stay cheap.
//
// A diagnostic at a deliberate violation is suppressed by a
// //nscc:<analyzer> directive comment on the same line or the line
// immediately above, e.g.:
//
//	//nscc:wallclock -- host-side throughput meter, not simulated time
//	start := time.Now()
//
// The nscc-lint command (cmd/nscc-lint) runs all four analyzers over
// package patterns and exits nonzero on findings; CI runs it next to
// go vet on every push.
package analysis

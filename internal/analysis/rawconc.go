package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// rawconcScope lists the package-path prefixes where simulated
// processes live: inside them, sim.Proc coroutines are the only legal
// concurrency. The simulation substrate itself (internal/sim, which
// implements coroutines with goroutines and channels) and the host-side
// worker pool (internal/runner) are deliberately outside the scope.
var rawconcScope = []string{
	"nscc/internal/core",
	"nscc/internal/pvm",
	"nscc/internal/netsim",
	"nscc/internal/ga",
	"nscc/internal/bayes",
	"nscc/internal/faults",
	"nscc/internal/rollback",
	"nscc/internal/partition",
	"nscc/internal/exper",
	"nscc/internal/graph",
	"nscc/internal/cluster",
}

// Rawconc reports raw Go concurrency — go statements, channels,
// select, package sync/atomic — in simulated-process code. Simulated
// processes must schedule exclusively through sim.Proc coroutines: the
// engine runs exactly one process at a time and replays event order
// deterministically, while a raw goroutine or channel hands ordering to
// the host scheduler and silently breaks replay (or deadlocks the
// cooperative engine).
var Rawconc = &Analyzer{
	Name: "rawconc",
	Doc: "raw goroutines/channels/sync in simulated-process code: " +
		"all concurrency must go through sim.Proc coroutines",
	Match: func(path string) bool { return pathInScope(path, rawconcScope) },
	Run: func(p *Pass) {
		p.Inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement in simulated-process code; spawn a sim.Proc coroutine instead")
			case *ast.SendStmt:
				p.Reportf(n.Pos(), "channel send in simulated-process code; communicate through simulated messages")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					p.Reportf(n.Pos(), "channel receive in simulated-process code; communicate through simulated messages")
				}
			case *ast.SelectStmt:
				p.Reportf(n.Pos(), "select in simulated-process code; block through the simulation engine")
			case *ast.ChanType:
				p.Reportf(n.Pos(), "channel type in simulated-process code; use simulated messages or events")
			case *ast.SelectorExpr:
				// Qualified references only (sync.Mutex, atomic.AddInt64):
				// method calls on an already-declared value would re-flag
				// the one offending declaration on every use.
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				if _, isPkg := p.TypesInfo.Uses[id].(*types.PkgName); !isPkg {
					return true
				}
				obj := p.TypesInfo.Uses[n.Sel]
				if path := pkgPathOf(obj); path == "sync" || path == "sync/atomic" {
					p.Reportf(n.Pos(),
						"%s.%s in simulated-process code; the engine is single-threaded by construction",
						path, obj.Name())
				}
			}
			return true
		})
	},
}

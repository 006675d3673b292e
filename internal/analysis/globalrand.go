package analysis

import (
	"go/ast"
	"go/types"
)

// globalrandDraws is the set of math/rand package-level functions that
// draw from (or mutate) the process-global source. rand.New and
// rand.NewSource construct explicit sources and are allowed — provided
// the seed is not a constant literal, which the analyzer checks
// separately.
var globalrandDraws = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func isMathRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// xrandPath is the repository's concrete copy of math/rand's generator,
// whose New(seed) is rand.New(rand.NewSource(seed)).
const xrandPath = "nscc/internal/xrand"

// Globalrand reports randomness that cannot replay: draws from
// math/rand's process-global source, and rand.NewSource or xrand.New
// seeded with a compile-time constant. Every random stream in a
// simulation must derive from the run's seed — through
// sim.Engine.NewRng or runner.DeriveSeed — so the same seed reproduces
// the same run and parallel sweeps stay byte-identical at any worker
// count. The global source is shared mutable state across goroutines
// (replay depends on host scheduling), and a constant seed silently
// aliases streams that were meant to be independent.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc: "math/rand global-source draws or constant-literal NewSource/xrand.New seeds: " +
		"derive every stream from the run seed (sim.Engine.NewRng, runner.DeriveSeed)",
	Run: func(p *Pass) {
		p.Inspect(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.TypesInfo.Uses[sel.Sel]
			if !isMathRand(pkgPathOf(obj)) {
				return true
			}
			// Package-level draws only: methods on *rand.Rand have a
			// receiver and are the blessed derived-stream API.
			fn, ok := obj.(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if globalrandDraws[fn.Name()] {
				p.Reportf(sel.Pos(),
					"rand.%s draws from the process-global source; use an engine-derived stream (sim.Engine.NewRng)",
					fn.Name())
			}
			return true
		})
		// Constant-literal seeds: rand.NewSource(42) — and therefore
		// rand.New(rand.NewSource(42)) — produces one fixed stream that
		// ignores the run's seed. xrand.New(42) is the same stream
		// through the concrete type, so it is the same finding.
		p.Inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.TypesInfo.Uses[sel.Sel]
			var ctor string
			switch path := pkgPathOf(obj); {
			case isMathRand(path) && obj.Name() == "NewSource":
				ctor = "rand.NewSource"
			case path == xrandPath && obj.Name() == "New":
				ctor = "xrand.New"
			default:
				return true
			}
			if tv, ok := p.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
				p.Reportf(call.Pos(),
					"%s with constant seed %s ignores the run seed; derive it (runner.DeriveSeed, sim.Engine.NewRng)",
					ctor, tv.Value.String())
			}
			return true
		})
	},
}

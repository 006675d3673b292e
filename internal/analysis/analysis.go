package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // short lower-case identifier; also the directive suffix
	Doc  string // one-paragraph description, shown by nscc-lint -help

	// Directive, if non-empty, overrides the suppression-directive
	// suffix (default Name): staleflow findings, for instance, are
	// discharged by //nscc:tolerates-stale rather than //nscc:staleflow,
	// because the annotation is an assertion about the flow, not a
	// request to look away.
	Directive string

	// Match, if non-nil, restricts which packages the driver applies
	// the analyzer to, by import path. Nil applies it everywhere.
	// Fixture tests bypass Match: it scopes repository runs only.
	Match func(importPath string) bool

	// Run inspects one package through the pass and reports findings
	// via pass.Reportf.
	Run func(*Pass)
}

// DirectiveName returns the suffix of the //nscc: directive that
// suppresses this analyzer's findings.
func (a *Analyzer) DirectiveName() string {
	if a.Directive != "" {
		return a.Directive
	}
	return a.Name
}

// A Pass carries one analyzer's view of one type-checked package and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole loaded program (every package of the lint run),
	// for interprocedural analyzers. Always non-nil: single-package
	// fixture runs see a one-package program.
	Prog *Program

	diags []Diagnostic
	// suppress maps filename -> set of lines bearing an
	// //nscc:<directive> comment for this pass's analyzer.
	suppress map[string]map[int]bool

	// OnSuppress, if set, observes every finding a directive swallowed
	// (the unuseddirective probe uses it to learn which directives pull
	// their weight). The position is the suppressed finding's.
	OnSuppress func(pos token.Position)
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Pos renders the diagnostic's position as file:line:col.
func (d Diagnostic) Pos() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos(), d.Analyzer, d.Message)
}

// NewPass prepares a pass of one analyzer over one package, including
// the directive map that implements //nscc:<name> suppression. prog
// may be nil, in which case a one-package program is built on the spot
// (fixture convenience); repository drivers share one Program across
// passes.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, prog *Program) *Pass {
	p := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		Prog: prog, suppress: map[string]map[int]bool{}}
	if p.Prog == nil {
		p.Prog = NewProgram([]*Package{{
			ImportPath: pkg.Path(), Fset: fset, Files: files, Types: pkg, Info: info,
		}})
	}
	name := a.DirectiveName()
	for _, pc := range collectDirectives(fset, files) {
		if pc.dir == nil || !pc.dir.Has(name) {
			continue
		}
		lines := p.suppress[pc.pos.Filename]
		if lines == nil {
			lines = map[int]bool{}
			p.suppress[pc.pos.Filename] = lines
		}
		lines[pc.pos.Line] = true
	}
	return p
}

// Reportf records one finding at pos unless an //nscc:<directive>
// comment on the same line or the line immediately above allows it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if lines := p.suppress[position.Filename]; lines != nil {
		if lines[position.Line] || lines[position.Line-1] {
			if p.OnSuppress != nil {
				p.OnSuppress(position)
			}
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect walks every file of the package in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Diagnostics returns the findings reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// All returns the repository's analyzer suite: the four syntactic
// checks, the three interprocedural dataflow analyzers, and the
// directive hygiene check.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock, Globalrand, Rawconc, Maporder,
		Staleflow, Commute, Detguard, Unuseddirective,
	}
}

// RunAnalyzers applies every applicable analyzer to every loaded
// package and returns the merged findings in position order. One
// Program (call graph + function summaries) is shared by every pass.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.ImportPath) {
				continue
			}
			pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, prog)
			a.Run(pass)
			diags = append(diags, pass.Diagnostics()...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for builtins and package-less objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

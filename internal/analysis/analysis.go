// Package analysis is a self-contained static-analysis framework modeled
// on golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast, go/parser and go/types packages (this repository vendors no
// third-party code). It powers the spandex-lint suite: project-specific
// analyzers that enforce the determinism and protocol-state invariants the
// parallel sweep runner (PR 1) and the coherence checker depend on.
//
// The API deliberately mirrors x/tools so analyzers can be ported to the
// upstream multichecker verbatim if the dependency ever becomes available:
// an Analyzer holds a name, a doc string and a Run function; Run receives a
// Pass with the type-checked syntax of one package and reports Diagnostics.
//
// Source-level suppression uses directive comments of the form
//
//	//spandex:<name> <justification>
//
// placed on the flagged line or the line directly above it. Each analyzer
// documents which directive it honors (e.g. //spandex:maprange for the
// determinism analyzer's map-iteration check). A justification is
// mandatory: a bare directive does not suppress. Suppressions and the
// protocol annotations share one grammar and one reader (Directive).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -analyzers filters.
	Name string
	// Doc is a short description, printed by spandex-lint -list.
	Doc string
	// Run performs the check on one package, reporting findings through
	// pass.Reportf. The returned error aborts the whole lint run and is
	// reserved for internal analyzer failures, not findings.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg    *Package
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Directives returns the package's //spandex: directives.
func (p *Pass) Directives() []*Directive { return p.pkg.Directives() }

// HasDirective reports whether a well-formed //spandex:<name> directive
// (suppressions require a justification) appears on node's line or the
// line above it.
func (p *Pass) HasDirective(node ast.Node, name string) bool {
	pos := p.Fset.Position(node.Pos())
	at := p.pkg.directives().at
	return at[directiveLine{pos.Filename, pos.Line, name}] || at[directiveLine{pos.Filename, pos.Line - 1, name}]
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position then analyzer name, so output is stable.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info,
				pkg: pkg, report: func(d Diagnostic) { diags = append(diags, d) }}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
	}
	return diags, nil
}

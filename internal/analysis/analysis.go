// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects the
// type-checked syntax of one package and reports Diagnostics. The repo
// builds offline (no module proxy), so vendoring x/tools is not an
// option; this package keeps the same shape — Analyzer with a Run
// function over a Pass — so the repcheck analyzers could be ported to
// the real framework by swapping imports.
//
// The analyzers in the subpackages machine-enforce the contracts every
// speedup since PR 1 is sold on: seed-derived RNG (detrand),
// read-only graph.Metric rows (rowborrow), map-iteration-order
// independence of anything that feeds an output or a float sum
// (maprange), and full-precision float encoding on the output paths
// (floatfmt). See ANALYSIS.md at the repo root for the contract each
// one enforces and how to suppress a finding with justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// //repcheck:allow-<Directive> suppression comments.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Directive is the suffix accepted in //repcheck:allow-<Directive>
	// comments. Defaults to Name when empty (detrand uses "wallclock").
	Directive string

	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// DirectiveName returns the suppression-directive suffix.
func (a *Analyzer) DirectiveName() string {
	if a.Directive != "" {
		return a.Directive
	}
	return a.Name
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// Run applies the analyzer to one package and returns its findings with
// //repcheck:allow-<directive> suppressions already filtered out.
// Suppressed findings whose directive carries no justification text are
// converted into findings themselves: an allowlist entry must say why.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	dirs := collectDirectives(fset, files)
	var out []Diagnostic
	for _, d := range pass.diags {
		if dir, ok := dirs.lookup(a.DirectiveName(), d.Pos); ok {
			if dir.reason == "" {
				out = append(out, Diagnostic{
					Analyzer: a.Name,
					Pos:      dir.pos,
					Message: fmt.Sprintf(
						"//repcheck:allow-%s needs a justification (say why the contract does not apply here)",
						a.DirectiveName()),
				})
			}
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

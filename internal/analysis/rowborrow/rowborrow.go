// Package rowborrow enforces the one ownership rule of graph.Metric
// rows: every row from Row or Pin is a read-only snapshot shared with
// the backend. The caller may keep it anywhere (a struct field, across
// later metric calls, across goroutines) but must never write through
// it. A write through a dense-matrix row would silently change every
// later distance read.
//
// The analyzer flags element writes and copies into a metric row:
//
//   - a Row result, directly (m.Row(u)[i] = x, copy(m.Row(u), src)) or
//     through a variable or field bound to one (row := m.Row(u));
//   - an element of a Pin result (pins[i][j] = x, copy(pins[i], src));
//   - a variable bound to one row of a Pin result (row := pins[i],
//     for _, row := range pins).
//
// The walks are package-wide: a Row or Pin result stored in a field by
// one function is recognised where another function writes through it,
// and so is a Pin result returned directly by a package function.
// Writing a slot of the caller-owned Pin result (pins[i] = other) is
// fine. A test that deliberately corrupts a row annotates the write
// with //repcheck:allow-rowborrow <reason>.
package rowborrow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the rowborrow pass.
var Analyzer = &analysis.Analyzer{
	Name: "rowborrow",
	Doc: "flags writes through graph.Metric rows (Row results and rows held from Pin), " +
		"which are read-only snapshots shared with the backend",
	Run: run,
}

// metricMethod reports whether call invokes Row or Pin on a type from
// the graph package (the Metric interface or any backend).
func metricMethod(pass *analysis.Pass, call *ast.CallExpr) (name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	switch sel.Sel.Name {
	case "Row", "Pin":
	default:
		return "", false
	}
	s, isMethod := pass.TypesInfo.Selections[sel]
	if !isMethod {
		return "", false
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || pkg.Name() != "graph" {
		return "", false
	}
	return sel.Sel.Name, true
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

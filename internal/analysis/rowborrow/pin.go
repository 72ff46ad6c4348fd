package rowborrow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// pinState is what the package-wide pre-pass learns about metric rows:
// which functions return a Pin result, which variables and fields hold
// one, and which variables and fields hold a single row (a Row result
// or one row read out of a Pin result).
type pinState struct {
	pass    *analysis.Pass
	funcs   map[types.Object]int  // functions returning a Pin result directly, at this result index
	results map[types.Object]bool // holds a Pin result ([][]float64)
	rows    map[types.Object]bool // holds one metric row
}

// run flags writes through metric rows. The walks are package-wide, so
// a row or Pin result stored in a field by one method is recognised
// where another method writes through it.
func run(pass *analysis.Pass) error {
	ps := &pinState{
		pass:    pass,
		funcs:   map[types.Object]int{},
		results: map[types.Object]bool{},
		rows:    map[types.Object]bool{},
	}
	ps.inspect(ps.collectFuncs)
	ps.inspect(ps.collectResults)
	ps.inspect(ps.collectRows)
	ps.inspect(ps.reportWrites)
	return nil
}

func (ps *pinState) inspect(visit func(ast.Node)) {
	for _, f := range ps.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			visit(n)
			return true
		})
	}
}

// collectFuncs records functions that return a Pin call's result
// directly (return m.Pin(dst, nodes), ...).
func (ps *pinState) collectFuncs(n ast.Node) {
	fd, ok := n.(*ast.FuncDecl)
	if !ok || fd.Body == nil {
		return
	}
	obj := ps.pass.TypesInfo.Defs[fd.Name]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if ps.isCall(res, "Pin") {
					ps.funcs[obj] = i
				}
			}
		}
		return true
	})
}

// isCall reports whether e is a graph call of the named method (Row or
// Pin).
func (ps *pinState) isCall(e ast.Expr, method string) bool {
	call, ok := stripParens(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	name, ok := metricMethod(ps.pass, call)
	return ok && name == method
}

// pinResult reports whether expression i of a call's results is a Pin
// result.
func (ps *pinState) pinResult(call *ast.CallExpr, i int) bool {
	if ps.isCall(call, "Pin") {
		return i == 0
	}
	var fn types.Object
	switch f := stripParens(call.Fun).(type) {
	case *ast.Ident:
		fn = ps.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		fn = ps.pass.TypesInfo.Uses[f.Sel]
	}
	idx, ok := ps.funcs[fn]
	return ok && idx == i
}

// collectResults records variables and fields assigned a Pin result.
func (ps *pinState) collectResults(n ast.Node) {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	for i, lhs := range as.Lhs {
		rhs, k := as.Rhs[0], i // a, b = f(): result i of one call
		if len(as.Rhs) == len(as.Lhs) {
			rhs, k = as.Rhs[i], 0
		}
		if call, ok := stripParens(rhs).(*ast.CallExpr); ok && ps.pinResult(call, k) {
			if obj := ps.object(lhs); obj != nil {
				ps.results[obj] = true
			}
		}
	}
}

// collectRows records variables and fields bound to one metric row:
// row := m.Row(u), h.row = m.Row(u), row := pins[i] and
// for _, row := range pins.
func (ps *pinState) collectRows(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if len(n.Lhs) == len(n.Rhs) && (ps.isCall(n.Rhs[i], "Row") || ps.pinElem(n.Rhs[i])) {
				if obj := ps.object(lhs); obj != nil {
					ps.rows[obj] = true
				}
			}
		}
	case *ast.RangeStmt:
		if n.Value != nil && ps.results[ps.object(n.X)] {
			if obj := ps.object(n.Value); obj != nil {
				ps.rows[obj] = true
			}
		}
	}
}

// pinElem reports whether e is an element of a Pin result (pins[i]).
func (ps *pinState) pinElem(e ast.Expr) bool {
	ix, ok := stripParens(e).(*ast.IndexExpr)
	return ok && ps.results[ps.object(ix.X)]
}

// metricRow reports whether e denotes a metric row.
func (ps *pinState) metricRow(e ast.Expr) bool {
	return ps.rows[ps.object(e)] || ps.isCall(e, "Row") || ps.pinElem(e)
}

// reportWrites flags element writes and copies into metric rows.
func (ps *pinState) reportWrites(n ast.Node) {
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{n.X}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 2 {
			if b, ok := ps.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "copy" && ps.metricRow(n.Args[0]) {
				ps.pass.Reportf(n.Args[0].Pos(),
					"copy into metric row %s; Row and Pin rows are read-only snapshots shared with the backend",
					types.ExprString(n.Args[0]))
			}
		}
	}
	for _, lhs := range targets {
		ix, ok := stripParens(lhs).(*ast.IndexExpr)
		if !ok || !ps.metricRow(ix.X) {
			continue
		}
		ps.pass.Reportf(lhs.Pos(),
			"write through metric row %s; Row and Pin rows are read-only snapshots shared with the backend",
			types.ExprString(ix.X))
	}
}

// object resolves an identifier or a field selector to its object.
func (ps *pinState) object(e ast.Expr) types.Object {
	switch e := stripParens(e).(type) {
	case *ast.Ident:
		if obj := ps.pass.TypesInfo.Defs[e]; obj != nil {
			return obj
		}
		return ps.pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := ps.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	}
	return nil
}

// Package rowborrow enforces the two ownership modes of graph.Metric
// rows. Row returns a slice owned by the metric backend that consumers
// must treat as a short-lived borrow — read it, then let it go. Pin
// returns held rows the caller may keep (in a struct field, across later
// metric calls) but, like a borrow, never write.
//
// For Row, the analyzer flags the three ways a borrow escapes its scope:
//
//  1. stored into longer-lived storage: a struct field, or appended to
//     a slice that outlives the borrow;
//  2. captured by a goroutine, a deferred call, or a closure that
//     itself escapes (assigned, stored, returned) — a closure passed
//     directly as a call argument is assumed synchronous (sort.Slice
//     and friends) and is not flagged;
//  3. used again after a later Row/Dist/Pin/AddEdge call on a metric,
//     i.e. retained across the call that is allowed to repopulate,
//     evict or invalidate backend caches — and any write through the
//     borrowed slice, which is backend-owned memory.
//
// For Pin, storing the result anywhere is fine; the analyzer flags
// writes through a pinned row (a variable read out of a Pin result) or
// through an element of a Pin result (pins[i][j] = x, copy(pins[i], src)).
// Pin results are followed through variables and struct fields across
// the package, and through functions of the package that return a Pin
// result directly.
//
// The flow analysis is per-function and source-ordered: a row bound and
// fully consumed before the next metric call is never flagged, and a
// row re-bound on every loop iteration is fine because its binding
// precedes its uses on every path through the body. Code that
// deliberately relies on a specific backend's storage-stability
// guarantee (backends never recycle row memory; pinned by the cache
// tests) annotates the use with //repcheck:allow-rowborrow <reason>.
package rowborrow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the rowborrow pass.
var Analyzer = &analysis.Analyzer{
	Name: "rowborrow",
	Doc: "flags graph.Metric.Row borrows that escape their scope (field stores, goroutine/closure " +
		"capture, retention across another metric call, writes through the row) and writes through " +
		"rows held from graph.Metric.Pin",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkPinWrites(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
				return false // nested FuncLits handled inside checkFunc
			}
			return true
		})
	}
	return nil
}

// metricMethod reports whether call invokes Row/Dist/Pin/AddEdge on a
// type from the graph package (the Metric interface or any backend).
func metricMethod(pass *analysis.Pass, call *ast.CallExpr) (name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	switch sel.Sel.Name {
	case "Row", "Dist", "Pin", "AddEdge":
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

// event is one position-ordered fact inside a function body.
type event struct {
	pos  token.Pos
	kind eventKind
	obj  types.Object // bind/use: the row variable
	end  token.Pos    // bind: end of the binding statement (its own call is not an invalidator)
}

type eventKind int

const (
	evBind eventKind = iota
	evInvalidate
	evUse
)

// checkFunc runs the borrow analysis over one function body, including
// its nested function literals (which get their own linear scan, so a
// row bound inside a closure is tracked there).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	rows := map[types.Object]bool{} // variables currently known to hold a borrow
	var events []event

	// funcLitEscapes classifies each FuncLit: synchronous callbacks
	// (direct call arguments and immediately-invoked literals) keep
	// linear positions; escaping ones (go/defer/assigned/returned) are
	// capture hazards.
	escaping := map[*ast.FuncLit]string{}
	classifyFuncLits(body, escaping)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := stripParens(rhs).(*ast.CallExpr); ok {
					if name, ok := metricMethod(pass, call); ok && name == "Row" && len(n.Lhs) > i {
						if id, ok := stripParens(n.Lhs[i]).(*ast.Ident); ok {
							obj := pass.TypesInfo.Defs[id]
							if obj == nil {
								obj = pass.TypesInfo.Uses[id]
							}
							if obj != nil {
								rows[obj] = true
								events = append(events, event{pos: id.Pos(), kind: evBind, obj: obj, end: n.End()})
							}
							continue
						}
						// Row result assigned to a non-identifier:
						// storing into a field or element escapes.
						pass.Reportf(n.Pos(),
							"graph.Metric.Row result stored in %s escapes its borrowing scope; "+
								"copy the row if it must outlive the next metric call",
							types.ExprString(n.Lhs[i]))
					}
				}
			}
		case *ast.CallExpr:
			if _, ok := metricMethod(pass, n); ok {
				events = append(events, event{pos: n.Pos(), kind: evInvalidate})
			}
		}
		return true
	})

	// Second walk: uses, stores, writes, captures of row variables.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[n]
			if obj != nil && rows[obj] {
				events = append(events, event{pos: n.Pos(), kind: evUse, obj: obj})
			}
		case *ast.AssignStmt:
			checkStores(pass, rows, n)
		case *ast.CallExpr:
			checkCallStores(pass, rows, n)
		case *ast.FuncLit:
			if why, esc := escaping[n]; esc {
				reportCaptures(pass, rows, n, why)
			}
		case *ast.GoStmt:
			reportRowArgs(pass, rows, n.Call, "passed to a goroutine")
		}
		return true
	})

	reportRetentions(pass, events)
}

// reportRetentions orders the events and flags uses of a row variable
// that happen after a metric call later than the variable's binding.
func reportRetentions(pass *analysis.Pass, events []event) {
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	type binding struct {
		end token.Pos // end of binding statement
		pos token.Pos
	}
	bind := map[types.Object]binding{}
	reported := map[types.Object]bool{}
	var invs []token.Pos
	for _, e := range events {
		switch e.kind {
		case evBind:
			bind[e.obj] = binding{end: e.end, pos: e.pos}
			reported[e.obj] = false
		case evInvalidate:
			invs = append(invs, e.pos)
		case evUse:
			b, ok := bind[e.obj]
			if !ok || reported[e.obj] {
				continue
			}
			// Is there an invalidating call strictly between the end of
			// the binding statement and this use?
			i := sort.Search(len(invs), func(i int) bool { return invs[i] >= b.end })
			if i < len(invs) && invs[i] < e.pos {
				pass.Reportf(e.pos,
					"row borrowed at %s is used after a later Row/Dist/Pin/AddEdge call; the borrow ends at "+
						"the next metric call — pin the row, re-fetch it, copy it, or annotate "+
						"//repcheck:allow-rowborrow <reason>",
					pass.Fset.Position(b.pos))
				reported[e.obj] = true
			}
		}
	}
}

// checkStores flags assignments that move a borrowed row into
// longer-lived storage, and writes through a borrowed row.
func checkStores(pass *analysis.Pass, rows map[types.Object]bool, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		// Writing INTO the row: row[i] = x.
		if ix, ok := stripParens(lhs).(*ast.IndexExpr); ok {
			if obj := identObj(pass, ix.X); obj != nil && rows[obj] {
				pass.Reportf(lhs.Pos(),
					"write through borrowed row %s; Row slices are backend-owned and read-only",
					types.ExprString(ix.X))
			}
		}
		if i >= len(as.Rhs) {
			continue
		}
		rhs := stripParens(as.Rhs[i])
		if obj := identObj(pass, rhs); obj == nil || !rows[obj] {
			continue
		}
		// Row variable copied somewhere: flag stores into fields or
		// elements (selector/index LHS); plain var-to-var copies are
		// tracked only at their later uses.
		switch stripParens(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			pass.Reportf(lhs.Pos(),
				"borrowed row %s stored in %s escapes its borrowing scope; copy the row "+
					"(or annotate //repcheck:allow-rowborrow <reason>)",
				types.ExprString(rhs), types.ExprString(lhs))
		}
	}
}

// checkCallStores flags append(dst, row) and copy(row, src).
func checkCallStores(pass *analysis.Pass, rows map[types.Object]bool, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "append":
		for i, arg := range call.Args[1:] {
			// append(dst, row...) spreads the row's ELEMENTS — that is
			// the copy idiom, not a retention of the backend's slice.
			if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
				continue
			}
			if obj := identObj(pass, arg); obj != nil && rows[obj] {
				pass.Reportf(arg.Pos(),
					"borrowed row %s appended to a slice escapes its borrowing scope; append a copy "+
						"(or annotate //repcheck:allow-rowborrow <reason>)",
					types.ExprString(arg))
			}
		}
	case "copy":
		if len(call.Args) == 2 {
			if obj := identObj(pass, call.Args[0]); obj != nil && rows[obj] {
				pass.Reportf(call.Args[0].Pos(),
					"copy into borrowed row %s; Row slices are backend-owned and read-only",
					types.ExprString(call.Args[0]))
			}
		}
	}
}

// reportCaptures flags references inside an escaping FuncLit to row
// variables bound outside it.
func reportCaptures(pass *analysis.Pass, rows map[types.Object]bool, fl *ast.FuncLit, why string) {
	seen := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !rows[obj] || seen[obj] {
			return true
		}
		// Bound outside the literal?
		if obj.Pos() >= fl.Pos() && obj.Pos() < fl.End() {
			return true
		}
		seen[obj] = true
		pass.Reportf(id.Pos(),
			"borrowed row %s captured by a %s; the closure may run after the borrow ends — "+
				"copy the row first (or annotate //repcheck:allow-rowborrow <reason>)",
			id.Name, why)
		return true
	})
}

// reportRowArgs flags borrowed rows passed in a go statement's call.
func reportRowArgs(pass *analysis.Pass, rows map[types.Object]bool, call *ast.CallExpr, why string) {
	for _, arg := range call.Args {
		if obj := identObj(pass, arg); obj != nil && rows[obj] {
			pass.Reportf(arg.Pos(),
				"borrowed row %s %s; the goroutine may outlive the borrow — copy the row first",
				types.ExprString(arg), why)
		}
	}
}

// classifyFuncLits records, for every FuncLit under body, whether it
// escapes synchronous use: launched by go, deferred, assigned to a
// variable or field, returned, or placed in a composite literal. A
// literal that is the Fun of a call (immediately invoked) or a direct
// call argument is treated as synchronous.
func classifyFuncLits(body *ast.BlockStmt, out map[*ast.FuncLit]string) {
	synchronous := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fl, ok := stripParens(n.Fun).(*ast.FuncLit); ok {
				synchronous[fl] = true
			}
			for _, arg := range n.Args {
				if fl, ok := stripParens(arg).(*ast.FuncLit); ok {
					synchronous[fl] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if fl, ok := stripParens(n.Call.Fun).(*ast.FuncLit); ok {
				out[fl] = "goroutine"
				delete(synchronous, fl)
			}
		case *ast.DeferStmt:
			if fl, ok := stripParens(n.Call.Fun).(*ast.FuncLit); ok {
				out[fl] = "deferred call"
				delete(synchronous, fl)
			}
		case *ast.FuncLit:
			if !synchronous[n] {
				if _, classified := out[n]; !classified {
					out[n] = "closure that escapes (assigned, stored, or returned)"
				}
			}
		}
		return true
	})
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

// identObj resolves a plain identifier expression to its object.
func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := stripParens(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

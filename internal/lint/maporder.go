package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"qnp/internal/lint/analysis"
)

// mapOrderAnalyzer flags `for range` statements over maps whose body is
// order-sensitive: accumulating floating-point values (float addition does
// not commute bit-exactly), emitting output, feeding the internal/stats
// aggregates, or building a slice that is never sorted afterwards. Go
// randomises map iteration order per run, so any such fold diverges between
// replicas, worker counts and reruns — the exact bug class PR 8 hit in the
// allocation sums. The sanctioned pattern is collect-then-sort: append the
// keys, sort them, iterate the sorted slice. A deliberately
// order-insensitive iteration is annotated //qnetlint:sorted <reason>.
var mapOrderAnalyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive folds over map iteration\n\n" +
		"A `for range` over a map may not accumulate floats, print, feed\n" +
		"stats aggregates, or append to a slice that is never sorted: map\n" +
		"order is randomised per run, so the result depends on it. Collect\n" +
		"keys, sort, then fold — or justify with //qnetlint:sorted <reason>.",
	Run: withDirectives(runMapOrder),
}

func runMapOrder(pass *analysis.Pass, sup *suppressor) {
	for _, f := range pass.Files {
		// Each function (declaration or literal) is its own scope: map
		// ranges are matched against sort calls in the same body.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body != nil {
				checkMapRangesIn(pass, sup, body)
			}
			return true
		})
	}
}

// checkMapRangesIn scans one function body (excluding nested function
// literals, which get their own scan) for order-sensitive map ranges.
func checkMapRangesIn(pass *analysis.Pass, sup *suppressor, body *ast.BlockStmt) {
	walkSameFunc(body, func(n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !rangesOverMap(pass, rs) {
			return
		}
		// A directive on the loop answers for its whole body.
		checkMapRangeBody(pass, body, rs, func(pos token.Pos, format string, args ...interface{}) {
			if !sup.suppressed(rs.Pos()) {
				sup.report(pos, format, args...)
			}
		})
	})
}

// walkSameFunc visits every node under root except the bodies of nested
// function literals.
func walkSameFunc(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func rangesOverMap(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// checkMapRangeBody passes the order-sensitive operations inside one map
// range to report. enclosing is the function body the loop lives in — the scope
// searched for a later sort call that sanctions collected slices.
func checkMapRangeBody(pass *analysis.Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt, report func(token.Pos, string, ...interface{})) {
	info := pass.TypesInfo
	walkSameFunc(rs.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if isFloatLike(info.TypeOf(n.Lhs[0])) {
					report(n.Pos(), "floating-point accumulation inside a map range: float folds are not order-independent and map order is random per run — collect keys, sort, then accumulate (//qnetlint:sorted <reason> if truly order-insensitive)")
				}
			case token.ASSIGN:
				// x = x + y (and -,*,/) over floats is the same fold.
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isFloatLike(info.TypeOf(n.Lhs[0])) {
					if be, ok := n.Rhs[0].(*ast.BinaryExpr); ok && isArith(be.Op) && mentionsSameObject(info, be, n.Lhs[0]) {
						report(n.Pos(), "floating-point accumulation inside a map range: float folds are not order-independent and map order is random per run — collect keys, sort, then accumulate (//qnetlint:sorted <reason> if truly order-insensitive)")
					}
				}
			default:
			}
			// append to a slice declared outside the loop: the element
			// order is the (random) map order unless sorted afterwards.
			if call := appendCall(n); call != nil {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					obj := info.ObjectOf(id)
					if obj != nil && !within(obj.Pos(), rs) && !sortedLater(pass, enclosing, rs, obj) {
						report(n.Pos(), "append inside a map range builds %s in random map order and no later sort call fixes it — sort the slice (or iterate sorted keys), or annotate the loop //qnetlint:sorted <reason>", id.Name)
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			switch {
			case fn.Pkg().Path() == "fmt" && emittingFmtFunc[fn.Name()]:
				report(n.Pos(), "fmt.%s inside a map range emits in random map order — iterate sorted keys instead (//qnetlint:sorted <reason> if order truly cannot matter)", fn.Name())
			case fn.Pkg().Path() == modulePath+"/internal/stats" && fn.Pkg() != pass.Pkg:
				// The stats package's own internal helpers are not
				// "feeding the aggregates"; the rule targets callers.
				report(n.Pos(), "feeding %s.%s from inside a map range: stats aggregates fold floats in arrival order, which here is random map order — iterate sorted keys (//qnetlint:sorted <reason> if truly order-insensitive)", fn.Pkg().Name(), fn.Name())
			}
		}
	})
}

var emittingFmtFunc = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func isFloatLike(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isArith(op token.Token) bool {
	return op == token.ADD || op == token.SUB || op == token.MUL || op == token.QUO
}

// mentionsSameObject reports whether expr references the same object as ref
// (an identifier or selector), making `x = x + y` a self-accumulation.
func mentionsSameObject(info *types.Info, expr ast.Expr, ref ast.Expr) bool {
	target := exprObject(info, ref)
	if target == nil {
		return exprString(ref) != "" && containsExprString(info, expr, exprString(ref))
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == target {
			found = true
		}
		return !found
	})
	return found
}

// exprObject resolves x or x.y to the variable object it denotes.
func exprObject(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

func exprString(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func containsExprString(info *types.Info, expr ast.Expr, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// appendCall returns the append CallExpr when stmt has the shape
// `s = append(s, ...)` / `s := append(s, ...)`, else nil.
func appendCall(stmt *ast.AssignStmt) *ast.CallExpr {
	if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
		return nil
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		return call
	}
	return nil
}

func within(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos <= n.End()
}

// sortedLater reports whether a sort call that touches obj appears in the
// enclosing body after the map range — the collect-then-sort sanction.
func sortedLater(pass *analysis.Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	info := pass.TypesInfo
	found := false
	walkSameFunc(enclosing, func(n ast.Node) {
		if found {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return
		}
		// Any sort-package call whose arguments reference the collected
		// slice counts: sort.Strings(ids), sort.Slice(ids, less),
		// sort.Sort(byLen(ids)), slices.Sort(ids), ...
		for _, arg := range call.Args {
			match := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && info.ObjectOf(id) == obj {
					match = true
				}
				return !match
			})
			if match {
				found = true
				return
			}
		}
	})
	return found
}

// calleeFunc resolves a call's callee to its *types.Func (function or
// method), nil for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

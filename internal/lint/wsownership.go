package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// wsOwnershipCheck enforces the linalg.Workspace ownership rules from
// the zero-allocation refactor: a matrix obtained with Get/GetRaw must, on
// every path out of the function, either be Put back or visibly change
// owner — returned, stored into a field/slice/map, sent on a channel, or
// captured by a closure. A Get whose result silently goes out of scope is a
// pool leak: the buffer is lost to the pool and steady-state allocation
// pressure creeps back.
//
// The analysis is a conservative single-pass walk: optimistic across
// branches (a Put or hand-off in any branch releases the variable; a branch
// ending in return/panic does not leak its state into the fall-through
// path) but strict about exits — a `return` or function end reached while a
// workspace matrix is live and unmentioned is reported. Call arguments are
// treated as borrows, not transfers, matching the linalg convention that
// …Into operands stay caller-owned. Genuine transfer-by-call patterns the
// walk cannot see are annotated //qnetlint:allow wsownership <reason>.
var wsOwnershipCheck = check{
	name: "wsownership",
	doc: "workspace Get/GetRaw must be matched by Put on all return paths\n\n" +
		"Every linalg.Workspace.Get/GetRaw result must be Put back, deferred,\n" +
		"returned, or stored into a longer-lived structure before the\n" +
		"function exits on any path; otherwise the pooled buffer leaks.",
	run: eachUnit(runWSOwnership),
}

func runWSOwnership(pass *pass) {
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				// Closure bodies are walked as their own functions; the
				// enclosing walk released anything a closure captures.
				body = n.Body
			default:
				return true
			}
			if body != nil {
				w := &wsWalker{pass: pass, live: map[types.Object]token.Pos{}}
				terminated := w.block(body)
				if !terminated {
					w.exit(body.Rbrace)
				}
			}
			return true
		})
	}
}

// workspaceMethod reports whether call is Get/GetRaw/Put on a
// *linalg.Workspace receiver, returning the method name ("" otherwise).
func workspaceMethod(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != modulePath+"/internal/linalg" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if named, ok := derefNamed(sig.Recv().Type()); !ok || named.Obj().Name() != "Workspace" {
		return ""
	}
	switch fn.Name() {
	case "Get", "GetRaw", "Put":
		return fn.Name()
	}
	return ""
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// wsWalker tracks live workspace-owned matrices through one function body.
type wsWalker struct {
	pass *pass
	// live maps each owning variable to the position of the Get that
	// produced it.
	live map[types.Object]token.Pos
}

func (w *wsWalker) clone() *wsWalker {
	c := &wsWalker{pass: w.pass, live: make(map[types.Object]token.Pos, len(w.live))}
	for k, v := range w.live {
		c.live[k] = v
	}
	return c
}

// intersectInto keeps only the variables live in both w and other: a
// variable released on either branch is optimistically considered released.
func (w *wsWalker) intersectInto(other *wsWalker) {
	for obj := range w.live {
		if _, ok := other.live[obj]; !ok {
			delete(w.live, obj)
		}
	}
}

// block walks a statement list; reports whether control definitely leaves
// the enclosing path (return/panic/branch) before the end.
func (w *wsWalker) block(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if w.stmt(s) {
			return true
		}
	}
	return false
}

// stmt processes one statement, returning true when it terminates the path.
func (w *wsWalker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.block(s)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.trackOrBorrow(name, vs.Values[i])
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if w.call(call) {
				return true // panic(...)
			}
		}
	case *ast.DeferStmt:
		// A deferred Put (or deferred closure touching the variable) runs
		// on every exit path: release unconditionally.
		if workspaceMethod(w.pass.info, s.Call) == "Put" {
			w.releaseMentionedIn(s.Call)
		} else {
			for _, arg := range s.Call.Args {
				w.releaseMentionedIn(arg)
			}
			w.releaseMentionedIn(s.Call.Fun)
		}
	case *ast.GoStmt:
		w.releaseMentionedIn(s.Call)
	case *ast.SendStmt:
		w.releaseMentionedIn(s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.releaseMentionedIn(r)
		}
		w.exit(s.Pos())
		return true
	case *ast.BranchStmt:
		// break/continue/goto: the fall-through path after the enclosing
		// construct is reached by some other branch; treat as terminating
		// this one (optimistic).
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		thenW := w.clone()
		thenDone := thenW.block(s.Body)
		elseW := w.clone()
		elseDone := false
		if s.Else != nil {
			elseDone = elseW.stmt(s.Else)
		}
		switch {
		case thenDone && elseDone:
			return true
		case thenDone:
			w.live = elseW.live
		case elseDone:
			w.live = thenW.live
		default:
			thenW.intersectInto(elseW)
			w.live = thenW.live
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.caseMerge(s)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		bodyW := w.clone()
		if !bodyW.block(s.Body) {
			// A release inside the body counts (optimistic): keep the
			// body-end state intersected with the incoming one.
			w.intersectInto(bodyW)
		}
	case *ast.RangeStmt:
		bodyW := w.clone()
		if !bodyW.block(s.Body) {
			w.intersectInto(bodyW)
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	}
	return false
}

// caseMerge handles switch/type-switch/select: each clause runs on its own
// copy; the fall-through state is the intersection of the non-terminating
// clauses (plus the incoming state when no default clause exists, since the
// switch may match nothing).
func (w *wsWalker) caseMerge(s ast.Stmt) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var states []*wsWalker
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				w.stmt(cl.Comm)
			}
			stmts = cl.Body
		}
		cw := w.clone()
		done := false
		for _, st := range stmts {
			if cw.stmt(st) {
				done = true
				break
			}
		}
		if !done {
			states = append(states, cw)
		}
	}
	if !hasDefault {
		states = append(states, w.clone())
	}
	if len(states) == 0 {
		// Every clause terminated and a default exists; nothing flows on.
		w.live = map[types.Object]token.Pos{}
		return
	}
	merged := states[0]
	for _, st := range states[1:] {
		merged.intersectInto(st)
	}
	w.live = merged.live
}

// assign handles tracking starts, Put-style releases and hand-offs in one
// assignment statement.
func (w *wsWalker) assign(s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			w.trackOrBorrow(s.Lhs[i], s.Rhs[i])
		}
		return
	}
	// Multi-value form: nothing on the RHS is a workspace Get (they return
	// a single matrix), so just apply hand-off rules.
	for _, r := range s.Rhs {
		w.handOff(r, nil)
	}
}

// trackOrBorrow processes one lhs := rhs pair.
func (w *wsWalker) trackOrBorrow(lhs, rhs ast.Expr) {
	info := w.pass.info
	if call, ok := unparen(rhs).(*ast.CallExpr); ok {
		switch workspaceMethod(info, call) {
		case "Get", "GetRaw":
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if obj := info.ObjectOf(id); obj != nil {
					w.live[obj] = call.Pos()
					return
				}
			}
			// Get assigned straight into a field/slice/blank: ownership
			// is immediately elsewhere; nothing to track.
			return
		}
	}
	var keep types.Object
	if id, ok := lhs.(*ast.Ident); ok {
		keep = info.ObjectOf(id)
	}
	w.handOff(rhs, keep)
}

// handOff releases live variables that visibly flow somewhere else in expr:
// aliased to another variable, placed in a composite literal, address
// taken, captured by a function literal. Appearing as a plain call argument
// is a borrow and does NOT release — linalg's …Into operands stay
// caller-owned. keep (the assignment's own target) never releases itself:
// `out = linalg.MulInto(out, …)` keeps out tracked.
func (w *wsWalker) handOff(expr ast.Expr, keep types.Object) {
	if len(w.live) == 0 {
		return
	}
	info := w.pass.info
	var walk func(e ast.Node, inCallArg bool)
	walk = func(e ast.Node, inCallArg bool) {
		switch e := e.(type) {
		case nil:
			return
		case *ast.Ident:
			if inCallArg {
				return
			}
			if obj := info.ObjectOf(e); obj != nil && obj != keep {
				if _, tracked := w.live[obj]; tracked {
					w.release(obj)
				}
			}
		case *ast.CallExpr:
			// ws.Put(v) in expression position still releases.
			if workspaceMethod(info, e) == "Put" {
				w.releaseMentionedIn(e)
				return
			}
			walk(e.Fun, inCallArg)
			for _, a := range e.Args {
				walk(a, true)
			}
		case *ast.FuncLit:
			// Captured by a closure: the closure owns it now.
			w.releaseMentionedIn(e.Body)
		case *ast.SelectorExpr:
			// v.Field reads don't move ownership; walk the base as a
			// borrow.
			return
		default:
			ast.Inspect(e, func(n ast.Node) bool {
				if n == e {
					return true
				}
				walk(n, inCallArg)
				return false
			})
		}
	}
	walk(expr, false)
}

// call processes a statement-position call: Put releases, panic terminates,
// closures capture.
func (w *wsWalker) call(call *ast.CallExpr) (terminates bool) {
	info := w.pass.info
	if workspaceMethod(info, call) == "Put" {
		w.releaseMentionedIn(call)
		return false
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && info.ObjectOf(id) == nil {
		return true
	}
	for _, a := range call.Args {
		if fl, ok := unparen(a).(*ast.FuncLit); ok {
			w.releaseMentionedIn(fl.Body)
		}
	}
	return false
}

func (w *wsWalker) release(obj types.Object) {
	delete(w.live, obj)
}

// releaseMentionedIn releases every live variable referenced under n.
func (w *wsWalker) releaseMentionedIn(n ast.Node) {
	if n == nil || len(w.live) == 0 {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if obj := w.pass.info.ObjectOf(id); obj != nil {
				if _, tracked := w.live[obj]; tracked {
					w.release(obj)
				}
			}
		}
		return true
	})
}

// exit reports every variable still live at a function exit point, then
// releases them so later exits don't re-report the same leak. An allow on
// the Get answers for the leak as well as one on the exit.
func (w *wsWalker) exit(pos token.Pos) {
	for obj, getPos := range w.live {
		g := w.pass.l.fset.Position(getPos)
		w.pass.reportAnchoredf(getPos, pos, "workspace matrix %s (Get at %s:%d) may leak: no Put, defer, return or hand-off reaches this exit — Put it back or annotate the Get //qnetlint:allow wsownership <reason>", obj.Name(), shortName(g.Filename), g.Line)
	}
	w.live = map[types.Object]token.Pos{}
}

func shortName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

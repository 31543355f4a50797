package lint

import (
	"go/ast"
	"go/types"

	"qnp/internal/lint/analysis"
)

// hotAllocAnalyzer keeps the hot path allocation-free: inside hot-path
// packages, a call to an allocating API whose workspace-backed twin exists
// (a linalg …Into op, or BellProjectorCached for BellProjector) is flagged
// — but only in functions that actually have a Workspace in scope (a
// *linalg.Workspace parameter, a receiver carrying a Workspace field, or a
// call that fetches one, such as the simulation's pool).
// Constructors, test setup and cold-path composition code have no
// workspace and keep using the ergonomic allocating forms; the rule only
// bites where the zero-allocation contract already holds and a stray
// Mul/Kron would quietly reintroduce steady-state garbage. The quantum
// operations need no rows: each has a single, workspace-threaded entry
// point. Escape hatch: //qnetlint:allow hotalloc <reason>.
var hotAllocAnalyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag allocating API calls where a workspace-backed twin exists\n\n" +
		"In hot-path packages, functions with a linalg.Workspace in scope\n" +
		"must call the linalg …Into twins (MulInto, KronInto, …) and\n" +
		"quantum.BellProjectorCached instead of the allocating forms;\n" +
		"anything else leaks allocations back into the per-event path the\n" +
		"zero-allocation refactor cleared.",
	Run: withDirectives(runHotAlloc),
}

// hotAllocTwins maps package path -> allocating function name -> the
// workspace-backed twin to use instead.
var hotAllocTwins = map[string]map[string]string{
	modulePath + "/internal/linalg": {
		"Mul":          "MulInto",
		"Kron":         "KronInto",
		"PartialTrace": "PartialTraceInto",
	},
	modulePath + "/internal/quantum": {
		"BellProjector": "BellProjectorCached",
	},
}

func runHotAlloc(pass *analysis.Pass, sup *suppressor) {
	if !isHotPathPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHotAllocIn(pass, sup, fd.Body, funcHasWorkspace(pass.TypesInfo, fd) || fetchesWorkspace(pass.TypesInfo, fd.Body))
		}
	}
}

// checkHotAllocIn walks a body; wsInScope tracks whether the surrounding
// function is workspace-threaded. Nested function literals inherit the
// enclosing availability (they capture the workspace) and may add their own
// via parameters.
func checkHotAllocIn(pass *analysis.Pass, sup *suppressor, n ast.Node, wsInScope bool) {
	info := pass.TypesInfo
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			if c.Pos() == n.Pos() {
				return true
			}
			inner := wsInScope
			if sig, ok := info.TypeOf(c).(*types.Signature); ok && signatureHasWorkspace(sig) {
				inner = true
			}
			checkHotAllocIn(pass, sup, c.Body, inner)
			return false
		case *ast.CallExpr:
			if !wsInScope {
				return true
			}
			fn := calleeFunc(info, c)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			twin, banned := hotAllocTwins[fn.Pkg().Path()][fn.Name()]
			if !banned {
				return true
			}
			sup.report(c.Pos(), "%s.%s allocates on every call but a workspace is in scope here — use %s.%s (//qnetlint:allow hotalloc <reason> for deliberate cold-path use)",
				fn.Pkg().Name(), fn.Name(), fn.Pkg().Name(), twin)
		}
		return true
	})
}

// funcHasWorkspace reports whether fd is workspace-threaded: a
// *linalg.Workspace parameter, or a receiver whose struct carries a
// Workspace field.
func funcHasWorkspace(info *types.Info, fd *ast.FuncDecl) bool {
	obj, ok := info.ObjectOf(fd.Name).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	if signatureHasWorkspace(sig) {
		return true
	}
	if recv := sig.Recv(); recv != nil {
		if named, ok := derefNamed(recv.Type()); ok {
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if isWorkspaceType(st.Field(i).Type()) {
						return true
					}
				}
			}
		}
	}
	return false
}

// fetchesWorkspace reports whether body calls a method that returns a
// *linalg.Workspace: a pool reached through an accessor (the simulation's,
// sim.Simulation.Workspace) is as much in scope as a parameter. Making a
// new pool (linalg.NewWorkspace) is set-up, not a hot path.
func fetchesWorkspace(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && isWorkspaceType(info.TypeOf(c)) {
			if fn := calleeFunc(info, c); fn != nil && fn.Type().(*types.Signature).Recv() != nil {
				found = true
			}
		}
		return !found
	})
	return found
}

func signatureHasWorkspace(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isWorkspaceType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isWorkspaceType(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Workspace" &&
		obj.Pkg() != nil && obj.Pkg().Path() == modulePath+"/internal/linalg"
}

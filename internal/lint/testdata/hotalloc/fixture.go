// The hotalloc fixture claims the qnp/internal/device import path, a
// hot-path package, so workspace-threaded functions are under the rule.
package device

import "qnp/internal/linalg"

// A workspace parameter puts the function in scope: allocating twins are
// flagged.
func hot(ws *linalg.Workspace, a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.Mul(a, b) // want `linalg.Mul allocates on every call but a workspace is in scope`
}

// The workspace-threaded twin is the sanctioned call.
func hotInto(ws *linalg.Workspace, a, b *linalg.Matrix) *linalg.Matrix {
	dst := ws.Get(a.Rows, b.Cols)
	defer ws.Put(dst)
	linalg.MulInto(dst, a, b)
	return linalg.Kron(a, b) // want `linalg.Kron allocates on every call but a workspace is in scope`
}

// No workspace anywhere: cold-path composition keeps the ergonomic forms.
func cold(a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.Mul(a, b)
}

// A receiver whose struct carries a Workspace is workspace-threaded too.
type engine struct {
	ws *linalg.Workspace
}

func (e *engine) step(a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.Mul(a, b) // want `linalg.Mul allocates on every call but a workspace is in scope`
}

// A pool fetched through an accessor method puts the function in scope
// too; making a new pool is set-up and does not.
type sim struct{}

func (*sim) pool() *linalg.Workspace { return nil }

func fetched(s *sim, a, b *linalg.Matrix) *linalg.Matrix {
	ws := s.pool()
	dst := ws.Get(a.Rows, b.Cols)
	defer ws.Put(dst)
	return linalg.Mul(a, b) // want `linalg.Mul allocates on every call but a workspace is in scope`
}

func setUp(a, b *linalg.Matrix) (*linalg.Workspace, *linalg.Matrix) {
	return linalg.NewWorkspace(), linalg.Mul(a, b)
}

// Closures inherit the enclosing function's workspace scope.
func hotClosure(ws *linalg.Workspace, a, b *linalg.Matrix) func() *linalg.Matrix {
	return func() *linalg.Matrix {
		return linalg.Mul(a, b) // want `linalg.Mul allocates on every call but a workspace is in scope`
	}
}

// Deliberate cold-path use inside a workspace-threaded function carries its
// justification.
func allowedAlloc(ws *linalg.Workspace, a, b *linalg.Matrix) *linalg.Matrix {
	//qnetlint:allow hotalloc fixture exercises the cold-path escape hatch
	return linalg.Mul(a, b)
}

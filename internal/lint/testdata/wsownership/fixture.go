// The wsownership fixture exercises the workspace Get/Put ownership walk
// against the real linalg package.
package wsfix

import "qnp/internal/linalg"

// A Get that silently goes out of scope is a pool leak, reported at the
// exit it escapes through — here the closing brace.
func leak(ws *linalg.Workspace) {
	m := ws.Get(2, 2)
	m.Data[0] = 1
} // want `workspace matrix m .* may leak`

// An early return that skips the Put leaks on that path only.
func earlyLeak(ws *linalg.Workspace, cond bool) int {
	m := ws.Get(2, 2)
	if cond {
		return 0 // want `workspace matrix m .* may leak`
	}
	ws.Put(m)
	return 1
}

// GetRaw carries the same obligation as Get.
func rawLeak(ws *linalg.Workspace) {
	m := ws.GetRaw(4, 4)
	m.Data[0] = 1
} // want `workspace matrix m .* may leak`

// The straight-line Get → use → Put discipline is clean.
func balanced(ws *linalg.Workspace) complex128 {
	m := ws.Get(2, 2)
	m.Data[0] = 1
	v := m.At(0, 0)
	ws.Put(m)
	return v
}

// A deferred Put covers every exit path.
func deferred(ws *linalg.Workspace, cond bool) complex128 {
	m := ws.Get(2, 2)
	defer ws.Put(m)
	if cond {
		return m.At(0, 0)
	}
	return m.At(1, 1)
}

// Returning the matrix transfers ownership to the caller.
func transferred(ws *linalg.Workspace) *linalg.Matrix {
	m := ws.Get(2, 2)
	m.Data[0] = 1
	return m
}

// Storing into a longer-lived structure is a visible hand-off.
func stored(ws *linalg.Workspace, out []*linalg.Matrix) {
	m := ws.Get(2, 2)
	out[0] = m
}

// The walk is optimistic across branches: a Put on each arm satisfies the
// join even though no single Put dominates the exit.
func branchPuts(ws *linalg.Workspace, cond bool) {
	m := ws.Get(2, 2)
	if cond {
		ws.Put(m)
	} else {
		ws.Put(m)
	}
}

// Genuine transfers the walk cannot see use the escape hatch on the Get.
func allowedLeak(ws *linalg.Workspace) {
	//qnetlint:allow wsownership fixture hands the buffer to an owner the walk cannot see
	m := ws.Get(2, 2)
	m.Data[0] = 1
}

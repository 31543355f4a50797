package linalg

import (
	"testing"

	"qnp/internal/race"
)

func TestWorkspaceRecycles(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(4, 4)
	m.Set(0, 0, 3)
	buf := &m.Data[0]
	ws.Put(m)
	if got := ws.Pooled(); got != 1 {
		t.Fatalf("Pooled() = %d, want 1", got)
	}
	//qnetlint:allow wsownership test inspects the recycled buffer and exits; the pool dies with it
	m2 := ws.Get(4, 4)
	if &m2.Data[0] != buf {
		t.Error("Get did not recycle the pooled buffer")
	}
	if m2.At(0, 0) != 0 {
		t.Error("recycled matrix not zeroed")
	}
}

func TestWorkspaceReshapesWithinBucket(t *testing.T) {
	ws := NewWorkspace()
	ws.Put(New(4, 4)) // capacity-16 buffer
	//qnetlint:allow wsownership test asserts the reshaped buffer's contents and exits; the pool dies with it
	v := ws.Get(4, 1) // smaller shape, same bucket
	if v.Rows != 4 || v.Cols != 1 || len(v.Data) != 4 {
		t.Fatalf("Get(4,1) returned %d×%d with %d elements", v.Rows, v.Cols, len(v.Data))
	}
	for i, x := range v.Data {
		if x != 0 {
			t.Fatalf("element %d not zeroed", i)
		}
	}
}

func TestWorkspaceNilIsAllocating(t *testing.T) {
	var ws *Workspace
	m := ws.Get(2, 2)
	if m == nil || m.Rows != 2 {
		t.Fatal("nil workspace Get did not allocate")
	}
	ws.Put(m) // must not panic
	if ws.Pooled() != 0 || ws.Misses() != 0 {
		t.Error("nil workspace reported state")
	}
}

func TestWorkspaceOversizeFallsBack(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(32, 32) // beyond the largest bucket
	if m.Rows != 32 {
		t.Fatal("oversize Get failed")
	}
	ws.Put(m)
	if ws.Pooled() != 0 {
		t.Error("oversize matrix was pooled")
	}
}

// TestAllocsWorkspaceSteadyState pins the tentpole contract: a warm
// Get/compute/Put cycle performs zero heap allocations.
func TestAllocsWorkspaceSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	ws := NewWorkspace()
	a := Identity(4)
	b := Identity(4)
	allocs := testing.AllocsPerRun(200, func() {
		m := ws.Get(4, 4)
		MulInto(m, a, b)
		ws.Put(m)
	})
	if allocs != 0 {
		t.Errorf("workspace steady-state allocs/op = %v, want 0", allocs)
	}
}

// TestAllocsIntoOps pins zero allocs/op for the destination-passing linalg
// operations themselves.
func TestAllocsIntoOps(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	a, b := Identity(4), Identity(4)
	dst16 := New(16, 16)
	dst4 := New(4, 4)
	dims := []int{2, 2, 2, 2}
	keep := []bool{true, false, false, true}
	big := Identity(16)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MulInto", func() { MulInto(dst4, a, b) }},
		{"KronInto", func() { KronInto(dst16, a, b) }},
		{"AddInto", func() { AddInto(dst4, a, b) }},
		{"ScaleInto", func() { ScaleInto(dst4, 2, a) }},
		{"ConjTransposeInto", func() { ConjTransposeInto(dst4, a) }},
		{"PartialTraceInto", func() { PartialTraceInto(dst4, big, dims, keep) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocs/op = %v, want 0", tc.name, allocs)
		}
	}
}

func TestIntoOpsMatchAllocating(t *testing.T) {
	a := FromRows([][]complex128{{1, 2i}, {3, complex(4, -1)}})
	b := FromRows([][]complex128{{complex(0.5, 1), 0}, {1, 2}})
	if got, want := MulInto(New(2, 2), a, b), Mul(a, b); !ApproxEqual(got, want, 0) {
		t.Error("MulInto != Mul")
	}
	if got, want := KronInto(New(4, 4), a, b), Kron(a, b); !ApproxEqual(got, want, 0) {
		t.Error("KronInto != Kron")
	}
	if got, want := AddInto(New(2, 2), a, b), Add(a, b); !ApproxEqual(got, want, 0) {
		t.Error("AddInto != Add")
	}
	if got, want := ScaleInto(New(2, 2), 3i, a), Scale(3i, a); !ApproxEqual(got, want, 0) {
		t.Error("ScaleInto != Scale")
	}
	if got, want := ConjTransposeInto(New(2, 2), a), Adjoint(a); !ApproxEqual(got, want, 0) {
		t.Error("ConjTransposeInto != Adjoint")
	}
	big := Kron(a, b)
	dims := []int{2, 2}
	keep := []bool{true, false}
	if got, want := PartialTraceInto(New(2, 2), big, dims, keep), PartialTrace(big, dims, keep); !ApproxEqual(got, want, 0) {
		t.Error("PartialTraceInto != PartialTrace")
	}
}

func TestIntoOpsRejectAliasing(t *testing.T) {
	a := Identity(4)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MulInto", func() { MulInto(a, a, Identity(4)) }},
		{"KronInto", func() { KronInto(a, Identity(2), a) }},
		{"ConjTransposeInto", func() { ConjTransposeInto(a, a) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with aliased dst did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

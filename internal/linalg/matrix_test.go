package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16} {
		m := randMatrix(r, n, n)
		if !ApproxEqual(Mul(Identity(n), m), m, tol) {
			t.Errorf("I·m != m for n=%d", n)
		}
		if !ApproxEqual(Mul(m, Identity(n)), m, tol) {
			t.Errorf("m·I != m for n=%d", n)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	want := FromRows([][]complex128{{19, 22}, {43, 50}})
	if !ApproxEqual(Mul(a, b), want, tol) {
		t.Errorf("Mul known product wrong:\n%v", Mul(a, b))
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched shapes did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestAddSubScale(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a, b := randMatrix(r, 3, 4), randMatrix(r, 3, 4)
	if !ApproxEqual(Sub(Add(a, b), b), a, 1e-10) {
		t.Error("(a+b)-b != a")
	}
	if !ApproxEqual(Scale(2, a), Add(a, a), tol) {
		t.Error("2a != a+a")
	}
	c := Scale(1, a)
	c.AddInPlace(b)
	if !ApproxEqual(c, Add(a, b), tol) {
		t.Error("AddInPlace != Add")
	}
	d := Scale(1, a)
	d.ScaleInPlace(3)
	if !ApproxEqual(d, Scale(3, a), tol) {
		t.Error("ScaleInPlace != Scale")
	}
}

func TestAdjoint(t *testing.T) {
	m := FromRows([][]complex128{{complex(1, 2), complex(3, 4)}, {complex(5, 6), complex(7, 8)}})
	ad := Adjoint(m)
	if ad.At(0, 1) != complex(5, -6) {
		t.Errorf("Adjoint(0,1) = %v", ad.At(0, 1))
	}
	if !ApproxEqual(Adjoint(ad), m, tol) {
		t.Error("double adjoint != original")
	}
}

func TestKronKnown(t *testing.T) {
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	i2 := Identity(2)
	xi := Kron(x, i2)
	// X⊗I swaps the first qubit: basis |00>↔|10>, |01>↔|11>.
	want := New(4, 4)
	want.Set(0, 2, 1)
	want.Set(1, 3, 1)
	want.Set(2, 0, 1)
	want.Set(3, 1, 1)
	if !ApproxEqual(xi, want, tol) {
		t.Errorf("X⊗I wrong:\n%v", xi)
	}
	if got := Kron(Kron(i2, i2), i2); got.Rows != 8 || !ApproxEqual(got, Identity(8), tol) {
		t.Error("I⊗I⊗I != I8")
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	r := rand.New(rand.NewSource(3))
	a, b, c, d := randMatrix(r, 2, 2), randMatrix(r, 3, 3), randMatrix(r, 2, 2), randMatrix(r, 3, 3)
	lhs := Mul(Kron(a, b), Kron(c, d))
	rhs := Kron(Mul(a, c), Mul(b, d))
	if !ApproxEqual(lhs, rhs, 1e-9) {
		t.Error("Kron mixed-product identity failed")
	}
}

func TestTrace(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, complex(4, 5)}})
	if got := Trace(m); got != complex(5, 5) {
		t.Errorf("Trace = %v", got)
	}
}

func TestTraceCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a, b := randMatrix(r, 4, 4), randMatrix(r, 4, 4)
	if cmplx.Abs(Trace(Mul(a, b))-Trace(Mul(b, a))) > 1e-9 {
		t.Error("Trace(ab) != Trace(ba)")
	}
}

func TestPartialTraceProductState(t *testing.T) {
	// For ρ = ρA⊗ρB, tracing out B must return ρA (and vice versa).
	r := rand.New(rand.NewSource(5))
	ra := randDensity(r, 2)
	rb := randDensity(r, 4)
	joint := Kron(ra, rb)
	gotA := PartialTrace(joint, []int{2, 4}, []bool{true, false})
	if !ApproxEqual(gotA, ra, 1e-9) {
		t.Error("PartialTrace over B != ρA")
	}
	gotB := PartialTrace(joint, []int{2, 4}, []bool{false, true})
	if !ApproxEqual(gotB, rb, 1e-9) {
		t.Error("PartialTrace over A != ρB")
	}
}

func TestPartialTraceBell(t *testing.T) {
	// Tracing one qubit of a Bell state leaves the maximally mixed state.
	phi := ColumnVector(1/math.Sqrt2, 0, 0, 1/math.Sqrt2)
	rho := OuterProduct(phi, phi)
	red := PartialTrace(rho, []int{2, 2}, []bool{true, false})
	want := Scale(0.5, Identity(2))
	if !ApproxEqual(red, want, tol) {
		t.Errorf("reduced Bell state not maximally mixed:\n%v", red)
	}
}

func TestPartialTracePreservesTrace(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	rho := randDensity(r, 8)
	red := PartialTrace(rho, []int{2, 2, 2}, []bool{true, false, true})
	if cmplx.Abs(Trace(red)-Trace(rho)) > 1e-9 {
		t.Error("partial trace changed total trace")
	}
	if red.Rows != 4 {
		t.Errorf("reduced dim = %d, want 4", red.Rows)
	}
}

// randDensity builds a random valid density matrix via ρ = G·G†/Tr.
func randDensity(r *rand.Rand, n int) *Matrix {
	g := randMatrix(r, n, n)
	rho := Mul(g, Adjoint(g))
	rho.ScaleInPlace(1 / Trace(rho))
	return rho
}

func TestOuterInnerProduct(t *testing.T) {
	v := ColumnVector(1, 0)
	w := ColumnVector(0, 1)
	if InnerProduct(v, w) != 0 {
		t.Error("<0|1> != 0")
	}
	if InnerProduct(v, v) != 1 {
		t.Error("<0|0> != 1")
	}
	op := OuterProduct(v, w)
	if op.At(0, 1) != 1 || op.At(0, 0) != 0 {
		t.Errorf("|0><1| wrong:\n%v", op)
	}
	vc := ColumnVector(complex(0, 1), 0)
	if got := InnerProduct(vc, vc); cmplx.Abs(got-1) > tol {
		t.Errorf("<i0|i0> = %v, want 1", got)
	}
	// Expectation of Z in |0> is +1, in |1> is -1.
	z := FromRows([][]complex128{{1, 0}, {0, -1}})
	if got := Expectation(z, v); got != 1 {
		t.Errorf("<0|Z|0> = %v", got)
	}
	if got := Expectation(z, w); got != -1 {
		t.Errorf("<1|Z|1> = %v", got)
	}
}

func TestHermitianUnitaryChecks(t *testing.T) {
	h := FromRows([][]complex128{{1, complex(0, -1)}, {complex(0, 1), 2}})
	if !IsHermitian(h, tol) {
		t.Error("hermitian matrix not recognised")
	}
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	if !IsUnitary(x, tol) {
		t.Error("X not unitary")
	}
	notU := FromRows([][]complex128{{2, 0}, {0, 1}})
	if IsUnitary(notU, tol) {
		t.Error("non-unitary accepted")
	}
	if IsHermitian(New(2, 3), tol) {
		t.Error("non-square accepted as hermitian")
	}
}

// Property: (a·b)† = b†·a† for random square matrices.
func TestQuickAdjointProduct(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randMatrix(rr, 4, 4), randMatrix(rr, 4, 4)
		return ApproxEqual(Adjoint(Mul(a, b)), Mul(Adjoint(b), Adjoint(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Error(err)
	}
}

// Property: trace is linear and Kron multiplies traces.
func TestQuickTraceKron(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randMatrix(rr, 2, 2), randMatrix(rr, 3, 3)
		return cmplx.Abs(Trace(Kron(a, b))-Trace(a)*Trace(b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]complex128{{3, 4}})
	b := FromRows([][]complex128{{3, 5}})
	if MaxAbsDiff(a, b) != 1 {
		t.Errorf("MaxAbsDiff = %v", MaxAbsDiff(a, b))
	}
}

func TestStringSmoke(t *testing.T) {
	if s := Identity(2).String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

package linalg_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qnp/internal/linalg"
	"qnp/internal/linalg/linalgtest"
)

const tol = 1e-12

func randMatrix(r *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16} {
		m := randMatrix(r, n, n)
		if !linalgtest.ApproxEqual(linalg.Mul(linalg.Identity(n), m), m, tol) {
			t.Errorf("I·m != m for n=%d", n)
		}
		if !linalgtest.ApproxEqual(linalg.Mul(m, linalg.Identity(n)), m, tol) {
			t.Errorf("m·I != m for n=%d", n)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := linalg.FromRows([][]complex128{{1, 2}, {3, 4}})
	b := linalg.FromRows([][]complex128{{5, 6}, {7, 8}})
	want := linalg.FromRows([][]complex128{{19, 22}, {43, 50}})
	if !linalgtest.ApproxEqual(linalg.Mul(a, b), want, tol) {
		t.Errorf("Mul known product wrong:\n%v", linalg.Mul(a, b))
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched shapes did not panic")
		}
	}()
	linalg.Mul(linalg.New(2, 3), linalg.New(2, 3))
}

func TestAddSubScale(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a, b := randMatrix(r, 3, 4), randMatrix(r, 3, 4)
	if !linalgtest.ApproxEqual(linalgtest.Sub(linalgtest.Add(a, b), b), a, 1e-10) {
		t.Error("(a+b)-b != a")
	}
	if !linalgtest.ApproxEqual(linalgtest.Scale(2, a), linalgtest.Add(a, a), tol) {
		t.Error("2a != a+a")
	}
	d := linalgtest.Scale(1, a)
	d.ScaleInPlace(3)
	if !linalgtest.ApproxEqual(d, linalgtest.Scale(3, a), tol) {
		t.Error("ScaleInPlace != Scale")
	}
}

func TestAdjoint(t *testing.T) {
	m := linalg.FromRows([][]complex128{{complex(1, 2), complex(3, 4)}, {complex(5, 6), complex(7, 8)}})
	ad := linalgtest.Adjoint(m)
	if ad.At(0, 1) != complex(5, -6) {
		t.Errorf("Adjoint(0,1) = %v", ad.At(0, 1))
	}
	if !linalgtest.ApproxEqual(linalgtest.Adjoint(ad), m, tol) {
		t.Error("double adjoint != original")
	}
}

func TestKronKnown(t *testing.T) {
	x := linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	i2 := linalg.Identity(2)
	xi := linalg.Kron(x, i2)
	// X⊗I swaps the first qubit: basis |00>↔|10>, |01>↔|11>.
	want := linalg.New(4, 4)
	for _, e := range []int{0*4 + 2, 1*4 + 3, 2*4 + 0, 3*4 + 1} {
		want.Data[e] = 1
	}
	if !linalgtest.ApproxEqual(xi, want, tol) {
		t.Errorf("X⊗I wrong:\n%v", xi)
	}
	if got := linalg.Kron(linalg.Kron(i2, i2), i2); got.Rows != 8 || !linalgtest.ApproxEqual(got, linalg.Identity(8), tol) {
		t.Error("I⊗I⊗I != I8")
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	r := rand.New(rand.NewSource(3))
	a, b, c, d := randMatrix(r, 2, 2), randMatrix(r, 3, 3), randMatrix(r, 2, 2), randMatrix(r, 3, 3)
	lhs := linalg.Mul(linalg.Kron(a, b), linalg.Kron(c, d))
	rhs := linalg.Kron(linalg.Mul(a, c), linalg.Mul(b, d))
	if !linalgtest.ApproxEqual(lhs, rhs, 1e-9) {
		t.Error("Kron mixed-product identity failed")
	}
}

func TestTrace(t *testing.T) {
	m := linalg.FromRows([][]complex128{{1, 2}, {3, complex(4, 5)}})
	if got := linalgtest.Trace(m); got != complex(5, 5) {
		t.Errorf("Trace = %v", got)
	}
}

func TestTraceCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a, b := randMatrix(r, 4, 4), randMatrix(r, 4, 4)
	if cmplx.Abs(linalgtest.Trace(linalg.Mul(a, b))-linalgtest.Trace(linalg.Mul(b, a))) > 1e-9 {
		t.Error("Trace(ab) != Trace(ba)")
	}
}

func TestPartialTraceProductState(t *testing.T) {
	// For ρ = ρA⊗ρB, tracing out B must return ρA (and vice versa).
	r := rand.New(rand.NewSource(5))
	ra := randDensity(r, 2)
	rb := randDensity(r, 4)
	joint := linalg.Kron(ra, rb)
	gotA := linalg.PartialTrace(joint, []int{2, 4}, []bool{true, false})
	if !linalgtest.ApproxEqual(gotA, ra, 1e-9) {
		t.Error("PartialTrace over B != ρA")
	}
	gotB := linalg.PartialTrace(joint, []int{2, 4}, []bool{false, true})
	if !linalgtest.ApproxEqual(gotB, rb, 1e-9) {
		t.Error("PartialTrace over A != ρB")
	}
}

func TestPartialTraceBell(t *testing.T) {
	// Tracing one qubit of a Bell state leaves the maximally mixed state.
	phi := linalg.ColumnVector(1/math.Sqrt2, 0, 0, 1/math.Sqrt2)
	rho := linalg.OuterProduct(phi, phi)
	red := linalg.PartialTrace(rho, []int{2, 2}, []bool{true, false})
	want := linalgtest.Scale(0.5, linalg.Identity(2))
	if !linalgtest.ApproxEqual(red, want, tol) {
		t.Errorf("reduced Bell state not maximally mixed:\n%v", red)
	}
}

func TestPartialTracePreservesTrace(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	rho := randDensity(r, 8)
	red := linalg.PartialTrace(rho, []int{2, 2, 2}, []bool{true, false, true})
	if cmplx.Abs(linalgtest.Trace(red)-linalgtest.Trace(rho)) > 1e-9 {
		t.Error("partial trace changed total trace")
	}
	if red.Rows != 4 {
		t.Errorf("reduced dim = %d, want 4", red.Rows)
	}
}

// randDensity builds a random valid density matrix via ρ = G·G†/Tr.
func randDensity(r *rand.Rand, n int) *linalg.Matrix {
	g := randMatrix(r, n, n)
	rho := linalg.Mul(g, linalgtest.Adjoint(g))
	rho.ScaleInPlace(1 / linalgtest.Trace(rho))
	return rho
}

func TestOuterInnerProduct(t *testing.T) {
	v := linalg.ColumnVector(1, 0)
	w := linalg.ColumnVector(0, 1)
	if linalg.InnerProduct(v, w) != 0 {
		t.Error("<0|1> != 0")
	}
	if linalg.InnerProduct(v, v) != 1 {
		t.Error("<0|0> != 1")
	}
	op := linalg.OuterProduct(v, w)
	if op.At(0, 1) != 1 || op.At(0, 0) != 0 {
		t.Errorf("|0><1| wrong:\n%v", op)
	}
	vc := linalg.ColumnVector(complex(0, 1), 0)
	if got := linalg.InnerProduct(vc, vc); cmplx.Abs(got-1) > tol {
		t.Errorf("<i0|i0> = %v, want 1", got)
	}
	// Expectation of Z in |0> is +1, in |1> is -1.
	z := linalg.FromRows([][]complex128{{1, 0}, {0, -1}})
	if got := linalg.Expectation(z, v); got != 1 {
		t.Errorf("<0|Z|0> = %v", got)
	}
	if got := linalg.Expectation(z, w); got != -1 {
		t.Errorf("<1|Z|1> = %v", got)
	}
}

func TestHermitianUnitaryChecks(t *testing.T) {
	h := linalg.FromRows([][]complex128{{1, complex(0, -1)}, {complex(0, 1), 2}})
	if !linalgtest.IsHermitian(h, tol) {
		t.Error("hermitian matrix not recognised")
	}
	x := linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	if !linalgtest.IsUnitary(x, tol) {
		t.Error("X not unitary")
	}
	notU := linalg.FromRows([][]complex128{{2, 0}, {0, 1}})
	if linalgtest.IsUnitary(notU, tol) {
		t.Error("non-unitary accepted")
	}
	if linalgtest.IsHermitian(linalg.New(2, 3), tol) {
		t.Error("non-square accepted as hermitian")
	}
}

// Property: (a·b)† = b†·a† for random square matrices.
func TestQuickAdjointProduct(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randMatrix(rr, 4, 4), randMatrix(rr, 4, 4)
		return linalgtest.ApproxEqual(linalgtest.Adjoint(linalg.Mul(a, b)), linalg.Mul(linalgtest.Adjoint(b), linalgtest.Adjoint(a)), 1e-9)
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
		return cmplx.Abs(linalgtest.Trace(linalg.Kron(a, b))-linalgtest.Trace(a)*linalgtest.Trace(b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := linalg.FromRows([][]complex128{{3, 4}})
	b := linalg.FromRows([][]complex128{{3, 5}})
	if linalgtest.MaxAbsDiff(a, b) != 1 {
		t.Errorf("MaxAbsDiff = %v", linalgtest.MaxAbsDiff(a, b))
	}
}

func TestStringSmoke(t *testing.T) {
	if s := linalg.Identity(2).String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestIntoOpsMatchAllocating(t *testing.T) {
	a := linalg.FromRows([][]complex128{{1, 2i}, {3, complex(4, -1)}})
	b := linalg.FromRows([][]complex128{{complex(0.5, 1), 0}, {1, 2}})
	if got, want := linalg.MulInto(linalg.New(2, 2), a, b), linalg.Mul(a, b); !linalgtest.ApproxEqual(got, want, 0) {
		t.Error("MulInto != Mul")
	}
	if got, want := linalg.KronInto(linalg.New(4, 4), a, b), linalg.Kron(a, b); !linalgtest.ApproxEqual(got, want, 0) {
		t.Error("KronInto != Kron")
	}
	big := linalg.Kron(a, b)
	dims := []int{2, 2}
	keep := []bool{true, false}
	if got, want := linalg.PartialTraceInto(linalg.New(2, 2), big, dims, keep), linalg.PartialTrace(big, dims, keep); !linalgtest.ApproxEqual(got, want, 0) {
		t.Error("PartialTraceInto != PartialTrace")
	}
}

// TestCMulMatchesComplexProduct checks that CMul is Go's complex product
// bit for bit, signed zeros, infinities and subnormals included; a NaN
// component must be NaN in both, whatever its payload.
func TestCMulMatchesComplexProduct(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e-300, 1e300}
	rng := rand.New(rand.NewSource(33))
	part := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
	}
	same1 := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	same := func(a, b complex128) bool { return same1(real(a), real(b)) && same1(imag(a), imag(b)) }
	for i := 0; i < 200000; i++ {
		a, b := complex(part(), part()), complex(part(), part())
		if got, want := linalg.CMul(a, b), a*b; !same(got, want) {
			t.Fatalf("CMul(%v, %v) = %v, a*b = %v", a, b, got, want)
		}
	}
}

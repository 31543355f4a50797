package quantum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qnp/internal/linalg"
)

const tol = 1e-10

func TestBellVectorsOrthonormal(t *testing.T) {
	for i := BellIndex(0); i < 4; i++ {
		for j := BellIndex(0); j < 4; j++ {
			got := linalg.InnerProduct(BellVector(i), BellVector(j))
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if d := got - want; real(d)*real(d)+imag(d)*imag(d) > tol {
				t.Errorf("<B%d|B%d> = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestBellStateFidelity(t *testing.T) {
	for i := BellIndex(0); i < 4; i++ {
		rho := BellProjector(i)
		for j := BellIndex(0); j < 4; j++ {
			f := Fidelity(rho, j)
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(f-want) > tol {
				t.Errorf("Fidelity(B%d, B%d) = %v, want %v", i, j, f, want)
			}
		}
	}
}

func TestBellIndexBits(t *testing.T) {
	cases := []struct {
		idx  BellIndex
		x, z uint8
		str  string
	}{
		{PhiPlus, 0, 0, "Φ+"},
		{PsiPlus, 1, 0, "Ψ+"},
		{PhiMinus, 0, 1, "Φ−"},
		{PsiMinus, 1, 1, "Ψ−"},
	}
	for _, c := range cases {
		if c.idx.XBit() != c.x || c.idx.ZBit() != c.z {
			t.Errorf("%v: bits (%d,%d), want (%d,%d)", c.idx, c.idx.XBit(), c.idx.ZBit(), c.x, c.z)
		}
		if c.idx.String() != c.str {
			t.Errorf("String(%d) = %q, want %q", c.idx, c.idx.String(), c.str)
		}
		if !c.idx.Valid() {
			t.Errorf("%v not Valid", c.idx)
		}
	}
	if BellIndex(4).Valid() {
		t.Error("BellIndex(4) reported Valid")
	}
}

// The Pauli structure of the Bell basis: applying X/Z to the left qubit of a
// Bell state flips exactly the corresponding index bit.
func TestBellPauliStructure(t *testing.T) {
	for i := BellIndex(0); i < 4; i++ {
		rho := BellProjector(i)
		gotX := ApplyGate1W(nil, rho, X, 0, 2)
		if f := Fidelity(gotX, i^1); math.Abs(f-1) > tol {
			t.Errorf("X⊗I on B%d: fidelity with B%d = %v", i, i^1, f)
		}
		gotZ := ApplyGate1W(nil, rho, Z, 0, 2)
		if f := Fidelity(gotZ, i^2); math.Abs(f-1) > tol {
			t.Errorf("Z⊗I on B%d: fidelity with B%d = %v", i, i^2, f)
		}
		// Pauli on the right qubit flips the same bits (up to phase).
		gotXR := ApplyGate1W(nil, rho, X, 1, 2)
		if f := Fidelity(gotXR, i^1); math.Abs(f-1) > tol {
			t.Errorf("I⊗X on B%d: fidelity with B%d = %v", i, i^1, f)
		}
	}
}

func TestWernerState(t *testing.T) {
	for _, b := range []BellIndex{PhiPlus, PsiMinus} {
		for _, f := range []float64{0.25, 0.5, 0.8, 0.9, 1.0} {
			w := WernerFor(f, b)
			if got := real(linalg.Trace(w)); math.Abs(got-1) > tol {
				t.Errorf("Tr W(%v, %v) = %v", f, b, got)
			}
			if !linalg.IsHermitian(w, tol) {
				t.Errorf("W(%v, %v) not hermitian", f, b)
			}
			// Fidelity f with b, and (1−f)/3 with each other Bell state.
			for i := BellIndex(0); i < 4; i++ {
				want := (1 - f) / 3
				if i == b {
					want = f
				}
				if got := Fidelity(w, i); math.Abs(got-want) > tol {
					t.Errorf("W(%v, %v): fidelity with %v = %v, want %v", f, b, i, got, want)
				}
			}
		}
	}
}

func TestCombineIsGroupXOR(t *testing.T) {
	for a := BellIndex(0); a < 4; a++ {
		for b := BellIndex(0); b < 4; b++ {
			for m := BellIndex(0); m < 4; m++ {
				got := Combine(a, b, m)
				if got != a^b^m {
					t.Fatalf("Combine(%v,%v,%v) = %v", a, b, m, got)
				}
				// XOR algebra: combining is associative and self-inverse.
				if Combine(got, b, m) != a {
					t.Fatal("Combine not self-inverse")
				}
			}
		}
	}
}

// Property: fidelity of any valid density matrix with any Bell state lies in
// [0,1], and the Bell diagonal sums to the trace.
func TestQuickFidelityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rho := randDensity(rng, 4)
		var sum float64
		for i := BellIndex(0); i < 4; i++ {
			fi := Fidelity(rho, i)
			if fi < -tol || fi > 1+tol {
				return false
			}
			sum += fi
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// randDensity builds a random valid density matrix via ρ = G·G†/Tr.
func randDensity(r *rand.Rand, n int) *linalg.Matrix {
	g := linalg.New(n, n)
	for i := range g.Data {
		g.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	rho := linalg.Mul(g, linalg.Adjoint(g))
	rho.ScaleInPlace(1 / linalg.Trace(rho))
	return rho
}

package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"qnp/internal/linalg"
)

// sameBits reports whether a and b are equal bit for bit, signed zeros
// included. linalg.MaxAbsDiff treats −0 and +0 as equal, so it cannot see a
// signed-zero divergence.
func sameBits(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, av := range a.Data {
		bv := b.Data[i]
		if math.Float64bits(real(av)) != math.Float64bits(real(bv)) ||
			math.Float64bits(imag(av)) != math.Float64bits(imag(bv)) {
			return false
		}
	}
	return true
}

// The reference: the operators the engine applies, written out as full
// matrices, and U·ρ·U† through the full 2ⁿ×2ⁿ lift, two MulInto calls and
// ConjTransposeInto, the path the local kernels replaced.

// Gate inputs that only the tests use.
var (
	gateS  = linalg.FromRows([][]complex128{{1, 0}, {0, complex(0, 1)}})
	gateT  = linalg.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}})
	gateCZ = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1},
	})
)

// kraus is a completely-positive trace-preserving map given by its Kraus
// operators: ρ → Σ K ρ K†.
type kraus []*linalg.Matrix

// isTracePreserving reports whether Σ K†K = I within tol.
func (k kraus) isTracePreserving(tol float64) bool {
	if len(k) == 0 {
		return false
	}
	n := k[0].Rows
	sum := linalg.New(n, n)
	for _, op := range k {
		sum.AddInPlace(linalg.Mul(linalg.Adjoint(op), op))
	}
	return linalg.ApproxEqual(sum, linalg.Identity(n), tol)
}

// amplitudeDamping is the T1 relaxation channel with decay probability γ.
func amplitudeDamping(gamma float64) kraus {
	gamma = clamp01(gamma)
	k0 := linalg.FromRows([][]complex128{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}})
	k1 := linalg.FromRows([][]complex128{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}})
	return kraus{k0, k1}
}

// phaseFlip is the dephasing channel that applies Z with probability p.
func phaseFlip(p float64) kraus {
	p = clamp01(p)
	return kraus{
		linalg.Scale(complex(math.Sqrt(1-p), 0), I2),
		linalg.Scale(complex(math.Sqrt(p), 0), Z),
	}
}

// depolarizing1 is the single-qubit depolarising channel
// ρ → (1−p)ρ + p·I/2.
func depolarizing1(p float64) kraus {
	p = clamp01(p)
	var ops kraus
	for m := 0; m < 4; m++ {
		ops = append(ops, linalg.Scale(depolarizingAmp(p, 1, m), Pauli(m)))
	}
	return ops
}

// depolarizing2 is the two-qubit depolarising channel
// ρ → (1−p)ρ + p·I/4, over the 16 two-qubit Paulis.
func depolarizing2(p float64) kraus {
	p = clamp01(p)
	var ops kraus
	for m := 0; m < 16; m++ {
		ops = append(ops, linalg.Scale(depolarizingAmp(p, 2, m), linalg.Kron(Pauli(m/4), Pauli(m%4))))
	}
	return ops
}

// lift embeds the d×d operator op on the qubits starting at target of an
// n-qubit system: I⊗…⊗op⊗…⊗I.
func lift(op *linalg.Matrix, target, n int) *linalg.Matrix {
	dim, d := 1<<n, op.Rows
	dst := linalg.New(dim, dim)
	left := 1 << target
	right := dim / (left * d)
	for l := 0; l < left; l++ {
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				v := op.Data[a*d+b]
				if v == 0 {
					continue
				}
				rowBase := (l*d + a) * right
				colBase := (l*d + b) * right
				for r := 0; r < right; r++ {
					dst.Data[(rowBase+r)*dim+colBase+r] = v
				}
			}
		}
	}
	return dst
}

func liftedConj(u, rho *linalg.Matrix) *linalg.Matrix {
	tmp := linalg.MulInto(linalg.New(rho.Rows, rho.Cols), u, rho)
	udag := linalg.ConjTransposeInto(linalg.New(u.Cols, u.Rows), u)
	return linalg.MulInto(linalg.New(rho.Rows, rho.Cols), tmp, udag)
}

func liftedGate(rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return liftedConj(lift(gate, target, n), rho)
}

func liftedChannel(rho *linalg.Matrix, k kraus, target, n int) *linalg.Matrix {
	out := linalg.New(rho.Rows, rho.Cols)
	for _, op := range k {
		out.AddInPlace(liftedConj(lift(op, target, n), rho))
	}
	return out
}

func liftedMeasure(rho *linalg.Matrix, target, n int, ro Readout, rng *rand.Rand) (int, *linalg.Matrix) {
	p0op := lift(proj0, target, n)
	p0 := real(linalg.Trace(linalg.Mul(p0op, rho)))
	p0 = math.Min(math.Max(p0, 0), 1)
	truth, proj, prob := 1, lift(proj1, target, n), 1-p0
	if rng.Float64() < p0 {
		truth, proj, prob = 0, p0op, p0
	}
	post := liftedConj(proj, rho)
	if prob > 1e-15 {
		post.ScaleInPlace(complex(1/prob, 0))
	}
	bit := truth
	if truth == 0 && rng.Float64() > ro.F0 || truth == 1 && rng.Float64() > ro.F1 {
		bit = 1 - truth
	}
	return bit, post
}

// randomState is a random Hermitian 2ⁿ×2ⁿ matrix with exact zeros, −0s,
// purely real and purely imaginary entries and negative parts, so that the
// kernels meet products that round to −0.
func randomState(rng *rand.Rand, n int) *linalg.Matrix {
	dim := 1 << n
	m := linalg.New(dim, dim)
	negZero := math.Copysign(0, -1)
	part := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return negZero
		}
		return rng.NormFloat64()
	}
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			v := complex(part(), part())
			if i == j {
				v = complex(real(v), 0)
			}
			m.Set(i, j, v)
			if i != j {
				m.Set(j, i, complex(real(v), -imag(v)))
			}
		}
	}
	return m
}

// TestLocalKernelsMatchLifted pins the local kernels to the lifted product
// bit for bit, for every qubit count 1–4, every target and every gate,
// projector and channel the engine applies.
func TestLocalKernelsMatchLifted(t *testing.T) {
	gates1 := map[string]*linalg.Matrix{
		"X": X, "Y": Y, "Z": Z, "H": H, "S": gateS, "SDagger": SDagger, "T": gateT, "Rx": Rx(0.7),
		"proj0": proj0, "proj1": proj1,
	}
	gates2 := map[string]*linalg.Matrix{"CNOT": CNOT, "CZ": gateCZ, "SWAP": SWAP}
	probs := []float64{0, 0.03, 0.5, 1}
	// A gate fidelity held in a variable, so that 1-fgate rounds at run
	// time as it does inside NoisyGate1W/2W.
	fgate := 0.97
	rng := rand.New(rand.NewSource(11))
	check := func(what string, got, want *linalg.Matrix) {
		t.Helper()
		if !sameBits(got, want) {
			t.Fatalf("%s: local kernel differs from the lifted product (max |Δ| %g)", what, linalg.MaxAbsDiff(got, want))
		}
	}
	for n := 1; n <= 4; n++ {
		for trial := 0; trial < 3; trial++ {
			rho := randomState(rng, n)
			for target := 0; target < n; target++ {
				at := fmt.Sprintf("n=%d target=%d trial=%d", n, target, trial)
				for name, g := range gates1 {
					check(at+" "+name, ApplyGate1W(nil, rho, g, target, n), liftedGate(rho, g, target, n))
					check(at+" noisy "+name, NoisyGate1W(nil, rho, g, target, n, fgate),
						liftedChannel(liftedGate(rho, g, target, n), depolarizing1(1-fgate), target, n))
				}
				for _, p := range probs {
					pat := fmt.Sprintf("%s p=%v ", at, p)
					check(pat+"ApplyDepolarizing1W", ApplyDepolarizing1W(nil, rho, p, target, n), liftedChannel(rho, depolarizing1(p), target, n))
					check(pat+"ApplyPhaseFlipW", ApplyPhaseFlipW(nil, rho, p, target, n), liftedChannel(rho, phaseFlip(p), target, n))
				}
				gamma, pflip := DecoherenceProbabilities(0.3, 1, 0.4)
				want := liftedChannel(liftedChannel(rho, amplitudeDamping(gamma), target, n), phaseFlip(pflip), target, n)
				check(at+" DecohereW", DecohereW(nil, rho, target, n, 0.3, 1, 0.4), want)
				for seed := int64(0); seed < 4; seed++ {
					ro := Readout{F0: 0.9, F1: 0.8}
					gotBit, got := MeasureW(nil, rho, target, n, ro, rand.New(rand.NewSource(seed)))
					wantBit, want := liftedMeasure(rho, target, n, ro, rand.New(rand.NewSource(seed)))
					if gotBit != wantBit {
						t.Fatalf("%s seed %d: MeasureW bit %d, lifted %d", at, seed, gotBit, wantBit)
					}
					check(fmt.Sprintf("%s seed %d MeasureW", at, seed), got, want)
				}
			}
			for target := 0; target+1 < n; target++ {
				at := fmt.Sprintf("n=%d target=%d trial=%d", n, target, trial)
				for name, g := range gates2 {
					check(at+" "+name, ApplyGate2W(nil, rho, g, target, n), liftedGate(rho, g, target, n))
					check(at+" noisy "+name, NoisyGate2W(nil, rho, g, target, n, fgate),
						liftedChannel(liftedGate(rho, g, target, n), depolarizing2(1-fgate), target, n))
				}
				for _, p := range probs {
					check(fmt.Sprintf("%s p=%v depolarizing2", at, p),
						applyDepolarizingW(nil, rho, p, 2, target, n), liftedChannel(rho, depolarizing2(p), target, n))
				}
			}
		}
	}
}

package quantum

import (
	"math"

	"qnp/internal/linalg"
)

// Kraus is a completely-positive trace-preserving map given by its Kraus
// operators: ρ → Σ K ρ K†.
type Kraus []*linalg.Matrix

// Apply applies the channel to qubit target of an n-qubit density matrix.
// The Kraus operators must be single-qubit (2×2).
func (k Kraus) Apply(rho *linalg.Matrix, target, n int) *linalg.Matrix {
	return k.ApplyW(nil, rho, target, n)
}

// ApplyW is the workspace-threaded Apply: the result is a fresh ws matrix
// owned by the caller. ρ is untouched. A nil ws falls back to plain
// allocation.
func (k Kraus) ApplyW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int) *linalg.Matrix {
	return applyLocalW(ws, rho, 1, target, n, k...)
}

// Apply2 applies a two-qubit channel (4×4 Kraus operators) to adjacent
// qubits (target, target+1) of an n-qubit density matrix.
func (k Kraus) Apply2(rho *linalg.Matrix, target, n int) *linalg.Matrix {
	return k.Apply2W(nil, rho, target, n)
}

// Apply2W is the workspace-threaded Apply2; see ApplyW.
func (k Kraus) Apply2W(ws *linalg.Workspace, rho *linalg.Matrix, target, n int) *linalg.Matrix {
	return applyLocalW(ws, rho, 2, target, n, k...)
}

// IsTracePreserving reports whether Σ K†K = I within tol.
func (k Kraus) IsTracePreserving(tol float64) bool {
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

// AmplitudeDamping returns the T1 relaxation channel with decay probability
// γ = 1 − exp(−t/T1).
func AmplitudeDamping(gamma float64) Kraus {
	gamma = clamp01(gamma)
	k0 := linalg.FromRows([][]complex128{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}})
	k1 := linalg.FromRows([][]complex128{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}})
	return Kraus{k0, k1}
}

// PhaseFlip returns the dephasing channel that applies Z with probability p.
func PhaseFlip(p float64) Kraus {
	p = clamp01(p)
	return Kraus{
		linalg.Scale(complex(math.Sqrt(1-p), 0), I2),
		linalg.Scale(complex(math.Sqrt(p), 0), Z),
	}
}

// BitFlip returns the channel that applies X with probability p.
func BitFlip(p float64) Kraus {
	p = clamp01(p)
	return Kraus{
		linalg.Scale(complex(math.Sqrt(1-p), 0), I2),
		linalg.Scale(complex(math.Sqrt(p), 0), X),
	}
}

// Depolarizing1 returns the single-qubit depolarising channel
// ρ → (1−p)ρ + p·I/2.
func Depolarizing1(p float64) Kraus {
	p = clamp01(p)
	var ops Kraus
	for m := 0; m < 4; m++ {
		ops = append(ops, linalg.Scale(depolarizingAmp(p, 1, m), Pauli(m)))
	}
	return ops
}

// Depolarizing2 returns the two-qubit depolarising channel
// ρ → (1−p)ρ + p·I/4, expressed over the 16 two-qubit Paulis.
func Depolarizing2(p float64) Kraus {
	p = clamp01(p)
	var ops Kraus
	for m := 0; m < 16; m++ {
		ops = append(ops, linalg.Scale(depolarizingAmp(p, 2, m), linalg.Kron(Pauli(m/4), Pauli(m%4))))
	}
	return ops
}

// DecoherenceProbabilities converts an idle time into (γ, p) for amplitude
// damping and phase flip given T1 and T2* (both in the same unit as t; pass
// seconds). The pure-dephasing rate is 1/T2* − 1/(2T1); if T2* ≥ 2T1 the
// dephasing contribution is zero. Non-positive lifetimes mean "no decay of
// that kind".
func DecoherenceProbabilities(t, t1, t2star float64) (gamma, pflip float64) {
	if t <= 0 {
		return 0, 0
	}
	if t1 > 0 {
		gamma = 1 - math.Exp(-t/t1)
	}
	if t2star > 0 {
		rate := 1 / t2star
		if t1 > 0 {
			rate -= 1 / (2 * t1)
		}
		if rate > 0 {
			pflip = (1 - math.Exp(-t*rate)) / 2
		}
	}
	return gamma, pflip
}

// Decohere evolves qubit target of an n-qubit ρ under T1 amplitude damping
// and T2* dephasing for t seconds. It is the lazy-decoherence primitive: the
// device calls it whenever a qubit is touched after sitting idle.
func Decohere(rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	return DecohereW(nil, rho, target, n, t, t1, t2star)
}

// DecohereW is the workspace-threaded Decohere. When no decay applies it
// returns rho itself; otherwise the result is a fresh ws matrix owned by the
// caller and rho is untouched.
func DecohereW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	gamma, pflip := DecoherenceProbabilities(t, t1, t2star)
	out := rho
	if gamma > 0 {
		// AmplitudeDamping(gamma), without building its matrices.
		out = applyOpsW(ws, out, 1, target, n,
			op2(1, 0, 0, complex(math.Sqrt(1-gamma), 0)),
			op2(0, complex(math.Sqrt(gamma), 0), 0, 0))
	}
	if pflip > 0 {
		next := ApplyPhaseFlipW(ws, out, pflip, target, n)
		if out != rho {
			ws.Put(out)
		}
		out = next
	}
	return out
}

// NoisyGate2 applies a two-qubit unitary to adjacent qubits (target,
// target+1) followed by two-qubit depolarising noise parameterised by the
// gate fidelity: p = 1 − f. A fidelity of 1 reduces to the perfect gate.
// This is the standard NetSquid-style gate noise model the paper's hardware
// tables (Table 1) parameterise.
func NoisyGate2(rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	return NoisyGate2W(nil, rho, gate, target, n, fidelity)
}

// NoisyGate2W is the workspace-threaded NoisyGate2. Result: fresh ws matrix
// owned by the caller; ρ untouched.
func NoisyGate2W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	out := ApplyGate2W(ws, rho, gate, target, n)
	if fidelity < 1 {
		next := applyDepolarizingW(ws, out, 1-fidelity, 2, target, n)
		ws.Put(out)
		out = next
	}
	return out
}

// NoisyGate1 applies a single-qubit unitary followed by single-qubit
// depolarising noise with p = 1 − f.
func NoisyGate1(rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	return NoisyGate1W(nil, rho, gate, target, n, fidelity)
}

// NoisyGate1W is the workspace-threaded NoisyGate1; see NoisyGate2W.
func NoisyGate1W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	out := ApplyGate1W(ws, rho, gate, target, n)
	if fidelity < 1 {
		next := applyDepolarizingW(ws, out, 1-fidelity, 1, target, n)
		ws.Put(out)
		out = next
	}
	return out
}

// ApplyDepolarizing1W applies the single-qubit depolarising channel with
// probability p to qubit target of ρ. Result: fresh ws matrix owned by the
// caller; ρ untouched. Bit-identical to Depolarizing1(p).Apply(rho, target, n).
func ApplyDepolarizing1W(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
	return applyDepolarizingW(ws, rho, p, 1, target, n)
}

// ApplyPhaseFlipW applies the dephasing channel with probability p to qubit
// target of ρ. Result: fresh ws matrix owned by the caller; ρ untouched.
// Bit-identical to PhaseFlip(p).Apply(rho, target, n).
func ApplyPhaseFlipW(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
	p = clamp01(p)
	s0 := complex(math.Sqrt(1-p), 0)
	// complex(-x, 0), not a complex negation: negating the complex would
	// flip the imaginary zero to -0, diverging bitwise from Scale(s, Z).
	return applyOpsW(ws, rho, 1, target, n,
		op2(s0, 0, 0, s0),
		op2(complex(math.Sqrt(p), 0), 0, 0, complex(-math.Sqrt(p), 0)))
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

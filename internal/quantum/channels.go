package quantum

import (
	"math"

	"qnp/internal/linalg"
)

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

// DecohereW evolves qubit target of an n-qubit ρ under T1 amplitude damping
// and T2* dephasing for t seconds. It is the lazy-decoherence primitive: the
// device calls it whenever a qubit is touched after sitting idle. When no
// decay applies it returns rho itself; otherwise the result is a fresh ws
// matrix owned by the caller (allocated when ws is nil) and rho is
// untouched.
func DecohereW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	gamma, pflip := DecoherenceProbabilities(t, t1, t2star)
	out := rho
	if gamma > 0 {
		// The amplitude-damping Kraus pair, without building its matrices.
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

// NoisyGate2W applies a two-qubit unitary to adjacent qubits (target,
// target+1) followed by two-qubit depolarising noise parameterised by the
// gate fidelity: p = 1 − f. A fidelity of 1 reduces to the perfect gate.
// This is the standard NetSquid-style gate noise model the paper's hardware
// tables (Table 1) parameterise. Result: fresh ws matrix owned by the
// caller; ρ untouched.
func NoisyGate2W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	out := ApplyGate2W(ws, rho, gate, target, n)
	if fidelity < 1 {
		next := applyDepolarizingW(ws, out, 1-fidelity, 2, target, n)
		ws.Put(out)
		out = next
	}
	return out
}

// NoisyGate1W applies a single-qubit unitary followed by single-qubit
// depolarising noise with p = 1 − f; see NoisyGate2W.
func NoisyGate1W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int, fidelity float64) *linalg.Matrix {
	out := ApplyGate1W(ws, rho, gate, target, n)
	if fidelity < 1 {
		next := applyDepolarizingW(ws, out, 1-fidelity, 1, target, n)
		ws.Put(out)
		out = next
	}
	return out
}

// ApplyDepolarizing1W applies the single-qubit depolarising channel
// ρ → (1−p)ρ + p·I/2 to qubit target of ρ. Result: fresh ws matrix owned by
// the caller; ρ untouched.
func ApplyDepolarizing1W(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
	return applyDepolarizingW(ws, rho, p, 1, target, n)
}

// ApplyPhaseFlipW applies the dephasing channel that applies Z with
// probability p to qubit target of ρ. Result: fresh ws matrix owned by the
// caller; ρ untouched.
func ApplyPhaseFlipW(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
	p = clamp01(p)
	s0 := complex(math.Sqrt(1-p), 0)
	// complex(-x, 0), not a complex negation: negating the complex would
	// flip the imaginary zero to -0, diverging bitwise from the Kraus
	// factor s·Z as linalg.ScaleInto computes it.
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

package quantum

import (
	"math"
	"math/cmplx"

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
//
// The result equals two Kraus passes through the block kernel bit for bit,
// signed zeros included: amplitude damping K0 = diag(1, √(1−γ)),
// K1 = √γ·|0⟩⟨1| when γ > 0, then the phase flip √(1−p)·I, √p·Z when
// p > 0. The tests keep that two-pass form as the reference. One pass
// suffices because both channels act on the target qubit alone, so each
// 2×2 target block of the damped state depends only on the same block of
// ρ (see local.go). Each block of ρ is read once. Its damped entries are
// formed on the stack as the first pass writes them: entry (0, 0) is
// 0 + (1·x00)·conj(1) + (√γ·x11)·conj(√γ), the others 0 + one K0 term,
// each term skipped on an exact-zero factor. The dephasing terms then act
// on those entries with the second pass's skips, and the block is written
// once.
func DecohereW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	gamma, pflip := DecoherenceProbabilities(t, t1, t2star)
	var ch noise1
	if gamma > 0 {
		ch.setDamping(gamma)
	}
	if pflip > 0 {
		ch.setPhaseFlip(pflip)
	}
	if !ch.damp && !ch.flip {
		return rho
	}
	return pass1W(ws, rho, target, n, &ch)
}

// noise1 is the single-qubit noise that pass1W applies in one pass:
// amplitude damping, the phase flip and depolarising noise, in that order,
// each when set.
type noise1 struct {
	damp, flip bool
	// Damping: K0 = diag(1, s), K1 = g·|0⟩⟨1|; cs, cg are conj(s), conj(g).
	s, g, cs, cg complex128
	// Phase flip: √(1−p)·I and √p·Z, diagonals s0 and z, conjugated cs0
	// and cz.
	s0, cs0 complex128
	z, cz   [2]complex128
	// Depolarising noise: its Kraus factors in Pauli order.
	depol []monomial
}

func (ch *noise1) setDamping(gamma float64) {
	ch.damp = true
	ch.s, ch.g = complex(math.Sqrt(1-gamma), 0), complex(math.Sqrt(gamma), 0)
	ch.cs, ch.cg = cmplx.Conj(ch.s), cmplx.Conj(ch.g)
}

func (ch *noise1) setPhaseFlip(p float64) {
	p = clamp01(p)
	ch.flip = true
	ch.s0 = complex(math.Sqrt(1-p), 0)
	// complex(-x, 0), not a complex negation: negating the complex would
	// flip the imaginary zero to -0, diverging bitwise from the Kraus
	// factor s·Z as linalg.ScaleInto computes it.
	ch.z = [2]complex128{complex(math.Sqrt(p), 0), complex(-math.Sqrt(p), 0)}
	ch.cs0, ch.cz = cmplx.Conj(ch.s0), [2]complex128{cmplx.Conj(ch.z[0]), cmplx.Conj(ch.z[1])}
}

// one is K0's unit entry and oneConj its conjugate. The products with
// them are kept, as the Kraus sum forms them: they can flip the sign of a
// zero.
var one, oneConj = complex(1, 0), cmplx.Conj(1)

// apply runs the set channels on the 2×2 block x, entry (a, c) at
// x[a*2+c]. Each stage writes every entry as a sum from +0 of its Kraus
// terms in Kraus order, dropping a term whose input entry or factor is an
// exact zero, as the block kernel's addSparse does.
func (ch *noise1) apply(x *[4]complex128) {
	if ch.damp {
		var y [4]complex128
		if x[0] != 0 {
			y[0] += one * x[0] * oneConj
		}
		if x[3] != 0 {
			y[0] += ch.g * x[3] * ch.cg
		}
		if ch.s != 0 {
			if x[1] != 0 {
				y[1] += one * x[1] * ch.cs
			}
			if x[2] != 0 {
				y[2] += ch.s * x[2] * oneConj
			}
			if x[3] != 0 {
				y[3] += ch.s * x[3] * ch.cs
			}
		}
		*x = y
	}
	if ch.flip {
		for e, v := range x {
			var acc complex128
			if v != 0 {
				if ch.s0 != 0 {
					acc += ch.s0 * v * ch.cs0
				}
				if ch.z[0] != 0 {
					acc += ch.z[e>>1] * v * ch.cz[e&1]
				}
			}
			x[e] = acc
		}
	}
	if ch.depol != nil {
		*x = conj1(x, ch.depol)
	}
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
// caller; ρ untouched. Its Kraus factors √(1−p)·I and √p·Z are diagonal,
// so entry (a, c) of each 2×2 target block is
// (s0·x)·conj(s0) + (z_a·x)·conj(z_c) with z = (√p, −√p), summed from +0,
// a term dropped when x or one of its factors is an exact zero: the
// products, sums and skips of the Kraus sum through the block kernel.
func ApplyPhaseFlipW(ws *linalg.Workspace, rho *linalg.Matrix, p float64, target, n int) *linalg.Matrix {
	var ch noise1
	ch.setPhaseFlip(p)
	return pass1W(ws, rho, target, n, &ch)
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

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
//
// The result equals two Kraus passes through the block kernel bit for bit,
// signed zeros included, for finite entries: amplitude damping
// K0 = diag(1, √(1−γ)), K1 = √γ·|0⟩⟨1| when γ > 0, then the phase flip
// √(1−p)·I, √p·Z when p > 0. The tests keep that two-pass form as the
// reference. One pass suffices because both channels act on the target
// qubit alone, so each 2×2 target block of the damped state depends only on
// the same block of ρ (see local.go). Each block of ρ is read once, goes
// through both stages on the stack (noise1.apply) and is written once.
func DecohereW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	var ch noise1
	if !ch.setDecoherence(t, t1, t2star) {
		return rho
	}
	return pass1W(ws, rho, target, n, &ch)
}

// noise1 is the single-qubit noise that one stage of a pass applies to
// each 2×2 block: amplitude damping, the phase flip and depolarising
// noise, in that order, each when set. Every Kraus factor of the three
// channels is a real multiple of a Pauli monomial, so the stages keep the
// real factors and apply them as real scalars.
type noise1 struct {
	damp, flip, depol bool
	// Damping: K0 = diag(1, s), K1 = g·|0⟩⟨1|.
	s, g float64
	// Phase flip: s0·I and sz·Z with s0 = √(1−p), sz = √p.
	s0, sz float64
	// Depolarising noise: d0·I, then d1·X, d1·Y and d1·Z.
	d0, d1 float64
}

// setDecoherence sets the damping and phase flip of an idle time t under
// T1 and T2*, and reports whether any decay applies. γ and p count only
// when > 0, so a NaN from a NaN idle time leaves the stage unset.
func (ch *noise1) setDecoherence(t, t1, t2star float64) bool {
	gamma, pflip := DecoherenceProbabilities(t, t1, t2star)
	if gamma > 0 {
		ch.damp = true
		ch.s, ch.g = math.Sqrt(1-gamma), math.Sqrt(gamma)
	}
	if pflip > 0 {
		ch.setPhaseFlip(pflip)
	}
	return ch.damp || ch.flip
}

func (ch *noise1) setPhaseFlip(p float64) {
	p = clamp01(p)
	ch.flip = true
	ch.s0, ch.sz = math.Sqrt(1-p), math.Sqrt(p)
}

func (ch *noise1) setDepolarizing(p float64) {
	p = clamp01(p)
	ch.depol = true
	ch.d0, ch.d1 = depolarizingAmp(p, 1, 0), depolarizingAmp(p, 1, 1)
}

// apply runs the set channels on the 2×2 block (x00, x01; x10, x11) and
// returns the result in the same order. Each stage writes every entry as
// a sum from +0 of its Kraus terms in Kraus order, as the block kernel's
// addSparse forms them.
//
// A real factor s turns the complex products (s·x)·conj(s) of those terms
// into (s·x)·s component by component (twice), and a unit factor leaves x
// as it is. For finite entries that changes at most the sign of a zero
// term: the complex product adds an exact ±0 to each real product. A sum
// that starts at +0 erases such a sign (see local.go), and for the same
// reason the block kernel's skip of an exact-zero term or factor needs no
// test here. The Pauli factors' phases become signs: the Y and Z terms
// negate the off-diagonal entries (0, 1) and (1, 0).
func (ch *noise1) apply(x00, x01, x10, x11 complex128) (complex128, complex128, complex128, complex128) {
	if ch.damp {
		var y00, y01, y10, y11 complex128
		y00 += x00
		y00 += twice(ch.g, x11)
		y01 += scale(ch.s, x01)
		y10 += scale(ch.s, x10)
		y11 += twice(ch.s, x11)
		x00, x01, x10, x11 = y00, y01, y10, y11
	}
	if ch.flip {
		s0, sz := ch.s0, ch.sz
		var y00, y01, y10, y11 complex128
		y00 += twice(s0, x00)
		y00 += twice(sz, x00)
		y01 += twice(s0, x01)
		y01 -= twice(sz, x01)
		y10 += twice(s0, x10)
		y10 -= twice(sz, x10)
		y11 += twice(s0, x11)
		y11 += twice(sz, x11)
		x00, x01, x10, x11 = y00, y01, y10, y11
	}
	if ch.depol {
		// The Pauli twirl: d0·I, then X, Y and Z with d1. X and Y read
		// the entry across the block, (1−a, 1−c).
		d0, d1 := ch.d0, ch.d1
		var y00, y01, y10, y11 complex128
		y00 += twice(d0, x00)
		y01 += twice(d0, x01)
		y10 += twice(d0, x10)
		y11 += twice(d0, x11)
		if d1 != 0 {
			t00, t01, t10, t11 := twice(d1, x00), twice(d1, x01), twice(d1, x10), twice(d1, x11)
			y00 += t11
			y00 += t11
			y00 += t00
			y01 += t10
			y01 -= t10
			y01 -= t01
			y10 += t01
			y10 -= t01
			y10 -= t10
			y11 += t00
			y11 += t00
			y11 += t11
		}
		x00, x01, x10, x11 = y00, y01, y10, y11
	}
	return x00, x01, x10, x11
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
	var ch noise1
	ch.setDepolarizing(p)
	return pass1W(ws, rho, target, n, &ch)
}

// PairChannels is the noise one touch of an entangled pair applies to its
// 4×4 state: each side's idle decoherence, then a single-qubit channel on
// one side, in the order they are added. Apply runs them as one in-place
// pass over the state, with the products, sums and order of DecohereW,
// ApplyDepolarizing1W and the phase flip applied one after another, each
// into a fresh matrix; the tests keep that chain as the reference. The
// zero value adds nothing.
type PairChannels struct {
	n      int
	stages [3]noise1
	h      [3]int // each stage's target bit in a basis index
}

// add returns a fresh stage on qubit side of the pair.
func (pc *PairChannels) add(side int) *noise1 {
	if side < 0 || side > 1 {
		panic("quantum: pair side out of range")
	}
	if pc.n == len(pc.stages) {
		panic("quantum: too many channels for one pair touch")
	}
	pc.h[pc.n] = 2 >> side
	pc.n++
	return &pc.stages[pc.n-1]
}

// Decohere adds qubit side's idle decoherence for t seconds under T1 and
// T2*, as DecohereW applies it; nothing when no decay applies.
func (pc *PairChannels) Decohere(side int, t, t1, t2star float64) {
	var ch noise1
	if ch.setDecoherence(t, t1, t2star) {
		*pc.add(side) = ch
	}
}

// Depolarize adds single-qubit depolarising noise with probability p on
// qubit side, as ApplyDepolarizing1W applies it.
func (pc *PairChannels) Depolarize(side int, p float64) {
	pc.add(side).setDepolarizing(p)
}

// PhaseFlip adds the dephasing that applies Z with probability p to qubit
// side: Kraus factors √(1−p)·I and √p·Z.
func (pc *PairChannels) PhaseFlip(side int, p float64) {
	pc.add(side).setPhaseFlip(p)
}

// Apply applies the added channels to the 4×4 pair state rho in place:
// its 16 entries are read once, go through every stage on the stack and
// are written once. With no channel added it does not read rho, which may
// then be nil.
func (pc *PairChannels) Apply(rho *linalg.Matrix) {
	if pc.n == 0 {
		return
	}
	if rho.Rows != 4 || rho.Cols != 4 {
		panic("quantum: PairChannels needs a 4×4 pair state")
	}
	dst := (*[16]complex128)(rho.Data)
	x := *dst
	for i := 0; i < pc.n; i++ {
		ch, h := &pc.stages[i], pc.h[i]
		for _, e := range pairBlocks[h-1] {
			x[e], x[e+h], x[e+4*h], x[e+5*h] = ch.apply(x[e], x[e+h], x[e+4*h], x[e+5*h])
		}
	}
	*dst = x
}

// pairBlocks[h−1] are the first entries of the four 2×2 blocks of a 4×4
// pair state whose target bit is h (2 for the left qubit, 1 for the
// right): block e holds entries e, e+h, e+4h and e+5h.
var pairBlocks = [2][4]int{{0, 2, 8, 10}, {0, 1, 4, 5}}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Package werner is the scalar fast-path physics engine: it tracks one
// Werner parameter w per entangled pair instead of a 4×4 density matrix,
// with closed-form updates for every operation the exact engine
// (internal/quantum) performs on a pair — heralded generation, memory
// decoherence, entanglement swapping, single-qubit depolarising and
// dephasing noise, Pauli-frame corrections and destructive measurement.
//
// A Werner state with parameter w relative to Bell state |B> is
//
//	ρ(w) = w·|B><B| + (1−w)·I/4,
//
// so its fidelity to |B> is (1+3w)/4 and to any other Bell state (1−w)/4.
// Each closed form below is exact for Werner inputs (the property tests in
// this package pin them against the exact engine to ≤1e-12); composing them
// through a protocol run is an approximation only because intermediate
// states are re-twirled to Werner form after each step.
//
// Determinism contract: every function that consumes randomness draws from
// the *rand.Rand in exactly the same order and count as its exact-engine
// counterpart (quantum.SwapW, quantum.MeasureInBasisW, hardware.Herald),
// so a simulation switched between engines sees identical RNG streams and
// an identical event timeline.
package werner

import (
	"math"
	"math/rand"

	"qnp/internal/quantum"
)

// FromFidelity converts a fidelity to the equivalent Werner parameter
// w = (4f−1)/3. Fidelities below 1/4 yield negative w (still a valid
// density matrix down to w = −1/3).
func FromFidelity(f float64) float64 { return (4*f - 1) / 3 }

// Fidelity returns the fidelity (1+3w)/4 of a Werner-w pair to its own
// Bell state.
func Fidelity(w float64) float64 { return (1 + 3*w) / 4 }

// CrossFidelity returns the fidelity (1−w)/4 of a Werner-w pair to any of
// the three Bell states other than its own.
func CrossFidelity(w float64) float64 { return (1 - w) / 4 }

// Generate maps a heralded-generation attempt to its Werner equivalent.
// fidelity is hardware.PairModel.Fidelity(), which already folds in photon
// dephasing, double excitation and the dark-count branch; the one Intn(2)
// draw mirrors hardware.Herald's random Ψ+/Ψ− herald so the RNG stream
// stays aligned with the exact engine.
func Generate(fidelity float64, rng *rand.Rand) (w float64, idx quantum.BellIndex) {
	idx = quantum.PsiPlus
	if rng.Intn(2) == 1 {
		idx = quantum.PsiMinus
	}
	return FromFidelity(fidelity), idx
}

// Decohere applies one joint amplitude-damping + dephasing step to both
// qubits of a Werner-w pair and returns the re-twirled Werner parameter.
// (g1, p1) and (g2, p2) are the per-side damping probability γ and phase
// flip probability from quantum.DecoherenceProbabilities; pass (0, 0) for
// a side that no longer holds a live qubit. phi says whether the pair's
// Bell state has X-bit 0 (Φ± live on |00>,|11>) or 1 (Ψ± on |01>,|10>) —
// amplitude damping treats the two supports differently, which is why the
// closed form needs it.
//
// The formula is exact for Werner input even though the exact engine
// applies the two sides sequentially: DecohereW is a product channel per
// side, so one joint application equals the composition.
func Decohere(w float64, phi bool, g1, p1, g2, p2 float64) float64 {
	// Coherence survival of the off-diagonal Bell element.
	d := math.Sqrt((1-g1)*(1-g2)) * (1 - 2*p1) * (1 - 2*p2)
	var f float64
	if phi {
		// Φ support: |11> decays to |00>, which is also in the support, so
		// the double-decay product γ₁γ₂ feeds fidelity back.
		f = w*((2-g1-g2+2*g1*g2)/4+d/2) + (1-w)*(1+g1*g2)/4
	} else {
		// Ψ support: decay leaves the support entirely.
		f = w*((2-g1-g2)/4+d/2) + (1-w)*(1-g1*g2)/4
	}
	return FromFidelity(f)
}

// Depolarize1 applies a one-sided depolarising channel with probability p.
// A Werner state's marginals are maximally mixed, so the closed form
// w' = (1−p)·w is exact.
func Depolarize1(w, p float64) float64 { return (1 - p) * w }

// PhaseFlip applies a one-sided phase flip (Z with probability p): the
// affected Bell component's fidelity moves to its phase partner, and the
// re-twirled parameter is w' = w·(1 − 4p/3).
func PhaseFlip(w, p float64) float64 { return w * (1 - 4*p/3) }

// SwapResult is the scalar analogue of quantum.SwapResult.
type SwapResult struct {
	// W is the merged pair's Werner parameter relative to the Bell index
	// the protocol *declares* via quantum.Combine with Outcome — readout
	// errors that misreport the Bell measurement are already folded in.
	W       float64
	Outcome quantum.BellIndex
}

// Swap performs the Bell-state measurement of an entanglement swap on two
// Werner pairs with parameters w1 and w2. It mirrors quantum.SwapW's noise
// model (depolarising two-qubit CNOT, depolarising single-qubit H, readout
// errors on both bits) and its RNG discipline exactly: four draws, in the
// order z-truth, z-readout, x-truth, x-readout. Werner marginals are
// maximally mixed, so each truth bit is an unbiased coin in every noise
// branch — the 0.5 threshold below is exact, not an approximation.
func Swap(w1, w2 float64, cfg quantum.SwapConfig, rng *rand.Rand) SwapResult {
	p2 := 1 - cfg.TwoQubitFidelity    // CNOT depolarising weight
	p1 := 1 - cfg.SingleQubitFidelity // H depolarising weight (z-measured qubit)
	zTruth, zBit := measureBit(cfg.Readout, rng)
	xTruth, xBit := measureBit(cfg.Readout, rng)

	// Fidelity of the merged pair to the *declared* Bell state, conditioned
	// on what was measured vs what was reported. In the clean branch
	// (probability q0) the declared frame is right only if neither readout
	// flipped; if the H-target qubit was depolarised (q1) the z bit carries
	// no information and contributes 1/2; the CNOT-depolarised branch (p2)
	// is maximally mixed and contributes 1/4.
	q0 := (1 - p2) * (1 - p1)
	q1 := (1 - p2) * p1
	var dz, dx float64
	if zBit == zTruth {
		dz = 1
	}
	if xBit == xTruth {
		dx = 1
	}
	fBB := q0*dz*dx + q1*dx/2 + p2/4
	return SwapResult{
		W:       w1 * w2 * FromFidelity(fBB),
		Outcome: quantum.BellIndex(uint8(xBit) | uint8(zBit)<<1),
	}
}

// Measure destructively measures one qubit of a Werner pair in any basis
// and returns the reported bit. The marginal of a Werner state is I/2 in
// every basis, so the truth bit is a fair coin; the readout model and the
// two-draw RNG discipline match quantum.MeasureW (basis rotations in
// MeasureInBasisW consume no draws).
func Measure(ro quantum.Readout, rng *rand.Rand) int {
	_, bit := measureBit(ro, rng)
	return bit
}

// measureBit draws one uniformly random truth bit and pushes it through the
// readout error model, consuming exactly two rng draws in MeasureW's order.
func measureBit(ro quantum.Readout, rng *rand.Rand) (truth, bit int) {
	truth = 1
	if rng.Float64() < 0.5 {
		truth = 0
	}
	bit = truth
	if truth == 0 {
		if rng.Float64() > ro.F0 {
			bit = 1
		}
	} else {
		if rng.Float64() > ro.F1 {
			bit = 0
		}
	}
	return truth, bit
}

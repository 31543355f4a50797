package quantum

import (
	"math"
	"math/rand"

	"qnp/internal/linalg"
)

// SwapConfig carries the hardware parameters that make an entanglement swap
// imperfect: the two-qubit gate fidelity (Table 1 "two-qubit gate"), the
// single-qubit gate fidelity, and the readout error model.
type SwapConfig struct {
	TwoQubitFidelity    float64
	SingleQubitFidelity float64
	Readout             Readout
}

// PerfectSwap has no noise anywhere; useful for tests and calibration.
var PerfectSwap = SwapConfig{TwoQubitFidelity: 1, SingleQubitFidelity: 1, Readout: PerfectReadout}

// SwapResult is the outcome of an entanglement swap.
type SwapResult struct {
	// Rho is the exact post-measurement 4×4 state of the surviving remote
	// pair (left qubit from the first input pair, right qubit from the
	// second).
	Rho *linalg.Matrix
	// Outcome is the two-bit Bell-measurement result announced by the
	// swapping node — the value a swap record stores and TRACK messages
	// collect. With noisy readout it may differ from the true projection.
	Outcome BellIndex
}

// dims/keep vectors for the four-qubit partial trace of SwapW, hoisted so
// the hot path does not allocate them per swap. Read-only.
var (
	dims4qubit = []int{2, 2, 2, 2}
	keepOuter  = []bool{true, false, false, true}
)

// SwapW performs an entanglement swap (Fig. 3 of the paper) between pair
// rhoAB (qubits A,b1 with b1 at the swapping node) and pair rhoBC (qubits
// b2,C with b2 at the swapping node). It executes the physical Bell-state
// measurement circuit — CNOT(b1→b2), H(b1), Z-measurements of b1 and b2 —
// with the configured noise, and returns the exact state of the surviving
// (A,C) pair plus the announced two-bit outcome.
//
// The resulting Bell index obeys Combine(idxAB, idxBC, Outcome); the tests
// pin this identity against the returned density matrix.
//
// Every intermediate joint state comes from ws and is returned to it; the
// resulting Rho is a fresh ws matrix whose ownership transfers to the
// caller (it typically becomes the merged pair's long-lived state). The
// inputs are untouched. A nil ws allocates instead, with bit-identical
// results and RNG consumption.
func SwapW(ws *linalg.Workspace, rhoAB, rhoBC *linalg.Matrix, cfg SwapConfig, rng *rand.Rand) SwapResult {
	if rhoAB.Rows != 4 || rhoBC.Rows != 4 {
		panic("quantum: Swap needs 4×4 pair states")
	}
	// Joint order (A, b1, b2, C): the two node-local qubits are adjacent.
	joint := ws.GetRaw(16, 16)
	linalg.KronInto(joint, rhoAB, rhoBC)
	next := NoisyGate2W(ws, joint, CNOT, 1, 4, cfg.TwoQubitFidelity)
	ws.Put(joint)
	joint = next
	next = NoisyGate1W(ws, joint, H, 1, 4, cfg.SingleQubitFidelity)
	ws.Put(joint)
	joint = next
	// After the basis change: b1 carries the phase bit, b2 the flip bit.
	zbit, next := MeasureW(ws, joint, 1, 4, cfg.Readout, rng)
	ws.Put(joint)
	joint = next
	xbit, next := MeasureW(ws, joint, 2, 4, cfg.Readout, rng)
	ws.Put(joint)
	joint = next
	// Remove the measured qubits; the survivors are (A, C).
	rhoAC := ws.GetRaw(4, 4)
	linalg.PartialTraceInto(rhoAC, joint, dims4qubit, keepOuter)
	ws.Put(joint)
	return SwapResult{
		Rho:     rhoAC,
		Outcome: BellIndex(uint8(xbit) | uint8(zbit)<<1),
	}
}

// Teleport sends the single-qubit state data (2×2 density matrix) through an
// entangled pair rho (qubits A,B; A co-located with the data qubit). It
// performs the Bell-state measurement on (data, A), applies the Pauli
// correction X^x Z^z on B assuming the pair is in Bell state pairIdx, and
// returns the exact received state. This is the paper's headline use of
// end-to-end pairs: deterministic qubit transmission.
func Teleport(data, rho *linalg.Matrix, pairIdx BellIndex, cfg SwapConfig, rng *rand.Rand) *linalg.Matrix {
	if data.Rows != 2 || rho.Rows != 4 {
		panic("quantum: Teleport needs a 2×2 data state and 4×4 pair")
	}
	// Joint order (D, A, B).
	joint := linalg.Kron(data, rho)
	joint = NoisyGate2W(nil, joint, CNOT, 0, 3, cfg.TwoQubitFidelity)
	joint = NoisyGate1W(nil, joint, H, 0, 3, cfg.SingleQubitFidelity)
	zbit, joint := MeasureW(nil, joint, 0, 3, cfg.Readout, rng)
	xbit, joint := MeasureW(nil, joint, 1, 3, cfg.Readout, rng)
	out := linalg.PartialTrace(joint, []int{2, 2, 2}, []bool{false, false, true})
	// Correction for a Φ+ resource: X^xbit then Z^zbit. If the pair is in a
	// different Bell state, fold its index into the correction — this is
	// exactly why the network must deliver the Bell index with the pair.
	x := uint8(xbit) ^ pairIdx.XBit()
	z := uint8(zbit) ^ pairIdx.ZBit()
	if x == 1 {
		out = ApplyGate1W(nil, out, X, 0, 1)
	}
	if z == 1 {
		out = ApplyGate1W(nil, out, Z, 0, 1)
	}
	return out
}

// DistillResult reports one DEJMPS distillation round.
type DistillResult struct {
	// OK reports whether the round succeeded (the two measurement outcomes
	// agreed); on failure both pairs are lost.
	OK bool
	// Rho is the surviving pair's state when OK.
	Rho *linalg.Matrix
}

// Distill runs one round of DEJMPS entanglement distillation on two pairs
// shared between the same two nodes (§4.3 of the paper: the network service
// built from QNP circuits). Pair states are (A,B)-ordered. Both pairs should
// be (close to) Bell state Φ+.
func Distill(pair1, pair2 *linalg.Matrix, cfg SwapConfig, rng *rand.Rand) DistillResult {
	// kron gives order (A1, B1, A2, B2); swap middle qubits for locality:
	// (A1, A2, B1, B2).
	joint := linalg.Kron(pair1, pair2)
	joint = ApplyGate2W(nil, joint, SWAP, 1, 4)
	// DEJMPS basis rotation: Rx(π/2) on Alice's qubits, Rx(−π/2) on Bob's.
	for _, q := range []int{0, 1} {
		joint = ApplyGate1W(nil, joint, Rx(math.Pi/2), q, 4)
	}
	for _, q := range []int{2, 3} {
		joint = ApplyGate1W(nil, joint, Rx(-math.Pi/2), q, 4)
	}
	// Bilateral CNOT: A1→A2 and B1→B2, both adjacent after the reorder.
	joint = NoisyGate2W(nil, joint, CNOT, 0, 4, cfg.TwoQubitFidelity)
	joint = NoisyGate2W(nil, joint, CNOT, 2, 4, cfg.TwoQubitFidelity)
	// Measure the target pair (A2, B2) = qubits 1 and 3.
	ma, joint := MeasureW(nil, joint, 1, 4, cfg.Readout, rng)
	mb, joint := MeasureW(nil, joint, 3, 4, cfg.Readout, rng)
	if ma != mb {
		return DistillResult{OK: false}
	}
	rho := linalg.PartialTrace(joint, []int{2, 2, 2, 2}, []bool{true, false, true, false})
	return DistillResult{OK: true, Rho: rho}
}

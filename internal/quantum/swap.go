package quantum

import (
	"math"
	"math/cmplx"
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
// The result equals the staged circuit on the 16×16 joint state (A, b1,
// b2, C) bit for bit: Kron, NoisyGate2W(CNOT), NoisyGate1W(H), MeasureW on
// b1 then b2, and the partial trace onto (A, C). The tests keep that
// pipeline as the reference. Only the entries that reach the result are
// evaluated:
//   - the projections leave the (b1, b2) = (z, x) block of the measured
//     qubits' outcomes and exact +0 elsewhere, and the partial trace and
//     the outcome probabilities are ascending sums from +0, which absorb
//     those zeros (see local.go). So the measurements read the 16 diagonal
//     entries of the noisy-H output and its 4×4 surviving block;
//   - each of those reads one 2×2 b1-block of the noisy-CNOT output, 8
//     blocks on the diagonal before the first draw and 12 more once the
//     outcomes are known: 80 of its 256 entries;
//   - CNOT is a permutation with unit entries, so each noisy-CNOT entry is
//     one pass of the Pauli-pair terms over the Kron product, summed from
//     +0 in Kraus order. The dropped unit factors only change the sign of
//     zeros, which those sums erase. This needs finite inputs: with an
//     infinite entry the staged circuit's unit products form 0·Inf = NaN.
//
// The noise stages run only at fidelity < 1, as in the staged circuit,
// and zero inputs add nothing. The RNG draws keep their order: b1's
// outcome, b1's readout, b2's outcome, b2's readout, each probability
// needing only diagonal entries computed before its draw.
//
// The resulting Rho is a fresh ws matrix whose ownership transfers to the
// caller (it typically becomes the merged pair's long-lived state); no
// other ws matrix is used. The inputs are untouched. A nil ws allocates
// instead, with bit-identical results and RNG consumption.
func SwapW(ws *linalg.Workspace, rhoAB, rhoBC *linalg.Matrix, cfg SwapConfig, rng *rand.Rand) SwapResult {
	if rhoAB.Rows != 4 || rhoAB.Cols != 4 || rhoBC.Rows != 4 || rhoBC.Cols != 4 {
		panic("quantum: Swap needs 4×4 pair states")
	}
	var terms2, terms1 [16]monomial
	k := swapKernel{gate2: cnotTerm[:]}
	k.load(rhoAB.Data, rhoBC.Data)
	if cfg.TwoQubitFidelity < 1 {
		k.gate2 = depolarizingTerms(terms2[:], 1-cfg.TwoQubitFidelity, 2)
	}
	if cfg.SingleQubitFidelity < 1 {
		k.gate1 = depolarizingTerms(terms1[:], 1-cfg.SingleQubitFidelity, 1)
	}
	// Joint index i = A·8 + b1·4 + b2·2 + C. The diagonal before the
	// measurements comes from the 8 b1-blocks on the diagonal.
	var diag [16]complex128
	for i0 := 0; i0 < 16; i0++ {
		if i0&4 == 0 {
			d := k.noisyH(i0, i0)
			diag[i0], diag[i0|4] = d[0], d[1]
		}
	}
	// After the basis change: b1 carries the phase bit, b2 the flip bit.
	var p0 float64
	for i, v := range diag {
		if i&4 == 0 {
			p0 += real(v)
		}
	}
	z, zbit, zprob := collapse(p0, cfg.Readout, rng)
	// b2's outcome reads the rescaled b1 = z diagonal; the rest is +0.
	p0 = 0
	for i, v := range diag {
		if i&4 == z<<2 && i&2 == 0 {
			p0 += real(renormalize(v, zprob))
		}
	}
	x, xbit, xprob := collapse(p0, cfg.Readout, rng)
	// The surviving (A, C) block sits at b1 = z, b2 = x. Its entries are
	// sums from +0 and hold no −0, so each projection's unit factors and
	// +0-started sum, and then the partial trace's, leave them as they are;
	// only the two rescales act.
	rhoAC := ws.GetRaw(4, 4)
	for r := 0; r < 4; r++ {
		i := r>>1<<3 | z<<2 | x<<1 | r&1
		for c := 0; c < 4; c++ {
			j := c>>1<<3 | z<<2 | x<<1 | c&1
			v := diag[i]
			if i != j {
				v = k.noisyH(i&^4, j&^4)[z]
			}
			rhoAC.Data[r*4+c] = renormalize(renormalize(v, zprob), xprob)
		}
	}
	return SwapResult{
		Rho:     rhoAC,
		Outcome: BellIndex(uint8(xbit) | uint8(zbit)<<1),
	}
}

// cnotTerm is the noiseless CNOT's own factor in the fused pass: its unit
// entries, applied as the CNOT stage applies them.
var cnotTerm = [1]monomial{{d: 4, v: [4]complex128{1, 1, 1, 1}}}

// hOp is the Hadamard gate as the local kernels see it.
var hOp = toLocalOp(H, 1)

// swapKernel evaluates single entries of SwapW's staged pipeline.
type swapKernel struct {
	// cnot is rhoAB⊗rhoBC, formed as linalg.KronInto forms it, at the
	// places CNOT(b1→b2) moves its entries to: the CNOT stage's output up
	// to the sign of zeros.
	cnot  [256]complex128
	gate2 []monomial // the noisy CNOT's Kraus factors after the CNOT
	gate1 []monomial // the noisy H's Kraus factors after the H; none if perfect
}

// load fills k.cnot, which must be all zero, from the two input pairs.
func (k *swapKernel) load(ab, bc []complex128) {
	for e, av := range ab[:16] {
		if av == 0 {
			continue
		}
		r1, c1 := e>>2, e&3
		for e2, bv := range bc[:16] {
			i, j := r1<<2|e2>>2, c1<<2|e2&3
			k.cnot[cnotIndex(i)<<4|cnotIndex(j)] = av * bv
		}
	}
}

// cnotIndex applies CNOT(b1→b2) to the joint basis index A·8 + b1·4 + b2·2
// + C.
func cnotIndex(i int) int { return i ^ i>>1&2 }

// noisyCNOT is entry (i, j) of the joint state after the noisy CNOT on
// (b1, b2): addSparse's sum over gate2, whose factor on local row a reads
// the CNOT output at local row a^f.
func (k *swapKernel) noisyCNOT(i, j int) complex128 {
	a, c := i>>1&3, j>>1&3
	var x [4]complex128
	live := false
	for f := range x {
		x[f] = k.cnot[(i^f<<1)<<4|(j^f<<1)]
		live = live || x[f] != 0
	}
	var acc complex128
	if !live {
		return acc
	}
	for t := range k.gate2 {
		g := &k.gate2[t]
		if v := x[g.f]; v != 0 {
			vx := g.v[a] * v
			acc += vx * cmplx.Conj(g.v[c])
		}
	}
	return acc
}

// noisyH returns entries (i0, j0) and (i0+4, j0+4), the b1-diagonal of
// one 2×2 b1-block, of the joint state after the noisy H on b1: the
// block's four noisy-CNOT entries, then addDense's two passes for H, then
// addSparse's sum over gate1, which maps the b1-diagonal onto itself.
func (k *swapKernel) noisyH(i0, j0 int) (d [2]complex128) {
	var x [4]complex128
	for a := 0; a < 2; a++ {
		for c := 0; c < 2; c++ {
			x[a*2+c] = k.noisyCNOT(i0|a<<2, j0|c<<2)
		}
	}
	for a := 0; a < 2; a++ {
		var t [2]complex128
		for c := 0; c < 2; c++ {
			var acc complex128
			for m := 0; m < 2; m++ {
				acc += hOp.u[a*4+m] * x[m*2+c]
			}
			t[c] = acc
		}
		var acc complex128
		for m := 0; m < 2; m++ {
			acc += t[m] * cmplx.Conj(hOp.u[a*4+m])
		}
		d[a] = acc
	}
	if len(k.gate1) == 0 {
		return d
	}
	y := d
	for a := 0; a < 2; a++ {
		var acc complex128
		for t := range k.gate1 {
			g := &k.gate1[t]
			if v := y[a^g.f]; v != 0 {
				vx := g.v[a] * v
				acc += vx * cmplx.Conj(g.v[a])
			}
		}
		d[a] = acc
	}
	return d
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

// Package quantum implements the quantum-state machinery the paper's
// evaluation relies on NetSquid for: two-qubit entangled-pair states as exact
// density matrices, noisy gates, decoherence and noisy readout, Bell-state
// algebra for entanglement tracking, entanglement swapping composed on the
// joint four-qubit state, teleportation and DEJMPS distillation.
//
// Pairs are the unit of state. A pair's density matrix is 4×4 in the basis
// |00>,|01>,|10>,|11> with the *left* qubit first. An entanglement swap is
// the noisy Bell-state measurement at the middle node on the 16×16 joint
// state of two pairs, returning the exact post-measurement remote pair.
// SwapW evaluates only the entries of that pipeline that reach the remote
// pair, 80 of the noisy CNOT's 256 outputs and 28 of the noisy H's, and
// equals the staged circuit bit for bit; the tests keep the staged circuit
// as its reference.
//
// Each operation has one entry point, threaded through a
// *linalg.Workspace: intermediates come from the workspace and go back to
// it, and the result is a workspace matrix the caller owns. A nil workspace
// allocates instead, with bit-identical results.
//
// Gates, noise channels and projectors act on their one or two target
// qubits directly (local.go), never through a lifted 2ⁿ×2ⁿ operator. The
// local kernels add exactly the nonzero terms of the lifted product
// linalg.MulInto would form, in the same order and from the same +0 start.
// A sum that starts at +0 is never −0 under round-to-nearest, so the terms
// they skip, all exact zeros, cannot change a bit, and the results equal the
// lifted algebra's bit for bit, signed zeros included. The tests keep the
// lifted operators and the Kraus forms of the channels as that reference.
package quantum

import (
	"math"

	"qnp/internal/linalg"
)

// Standard single-qubit gates.
var (
	// I2 is the single-qubit identity.
	I2 = linalg.Identity(2)
	// X, Y, Z are the Pauli matrices.
	X = linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	Y = linalg.FromRows([][]complex128{{0, complex(0, -1)}, {complex(0, 1), 0}})
	Z = linalg.FromRows([][]complex128{{1, 0}, {0, -1}})
	// H is the Hadamard gate.
	H = linalg.FromRows([][]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	})
	// SDagger is diag(1, -i).
	SDagger = linalg.FromRows([][]complex128{{1, 0}, {0, complex(0, -1)}})
)

// Two-qubit gates in the basis |00>,|01>,|10>,|11> (first qubit = control
// where applicable).
var (
	// CNOT flips the second qubit when the first is |1>.
	CNOT = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
	// SWAP exchanges the two qubits.
	SWAP = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	})
)

// Rx returns the rotation exp(-iθX/2).
func Rx(theta float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return linalg.FromRows([][]complex128{{c, s}, {s, c}})
}

// Pauli returns the Pauli operator for index 0..3 = I,X,Y,Z.
func Pauli(i int) *linalg.Matrix {
	switch i {
	case 0:
		return I2
	case 1:
		return X
	case 2:
		return Y
	case 3:
		return Z
	}
	panic("quantum: Pauli index out of range")
}

// ApplyGate1W applies a single-qubit unitary to qubit target of an n-qubit
// ρ. The result is a fresh ws matrix owned by the caller and ρ is
// untouched. A nil ws allocates the result instead.
func ApplyGate1W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return applyOpsW(ws, rho, 1, target, n, toLocalOp(gate, 1))
}

// ApplyGate2W applies a two-qubit unitary to adjacent qubits (target,
// target+1) of an n-qubit ρ; see ApplyGate1W for the ownership rules.
func ApplyGate2W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return applyOpsW(ws, rho, 2, target, n, toLocalOp(gate, 2))
}

// Package quantum implements the quantum-state machinery the paper's
// evaluation relies on NetSquid for: two-qubit entangled-pair states as exact
// density matrices, noisy gates and measurements as Kraus channels, Bell-state
// algebra for entanglement tracking, entanglement swapping composed on the
// joint four-qubit state, teleportation and BBPSSW distillation.
//
// Pairs are the unit of state. A pair's density matrix is 4×4 in the basis
// |00>,|01>,|10>,|11> with the *left* qubit first. Entanglement swaps build
// the 16×16 joint state of two pairs, apply the noisy Bell-state measurement
// at the middle node, and return the exact post-measurement remote pair.
//
// Gates, Kraus channels and projectors act on their one or two target
// qubits directly (local.go), never through a lifted 2ⁿ×2ⁿ operator. The
// local kernels add exactly the nonzero terms of the lifted product
// linalg.MulInto would form, in the same order and from the same +0 start.
// A sum that starts at +0 is never −0 under round-to-nearest, so the terms
// they skip, all exact zeros, cannot change a bit, and the results equal the
// lifted algebra's bit for bit, signed zeros included.
package quantum

import (
	"math"
	"math/cmplx"

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
	// S is the phase gate diag(1, i).
	S = linalg.FromRows([][]complex128{{1, 0}, {0, complex(0, 1)}})
	// SDagger is diag(1, -i).
	SDagger = linalg.FromRows([][]complex128{{1, 0}, {0, complex(0, -1)}})
	// T is the π/8 gate.
	T = linalg.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}})
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
	// CZ applies a phase of -1 to |11>.
	CZ = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1},
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

// Ry returns the rotation exp(-iθY/2).
func Ry(theta float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return linalg.FromRows([][]complex128{{c, -s}, {s, c}})
}

// Rz returns the rotation exp(-iθZ/2).
func Rz(theta float64) *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	})
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

// Lift1 embeds a single-qubit operator acting on qubit target (0-based) of an
// n-qubit system: I⊗…⊗op⊗…⊗I. The gate and channel paths never build it;
// it remains for analysis and as the reference the local kernels are tested
// against.
func Lift1(op *linalg.Matrix, target, n int) *linalg.Matrix {
	if op.Rows != 2 || op.Cols != 2 {
		panic("quantum: Lift1 needs a 2×2 operator")
	}
	if target < 0 || target >= n {
		panic("quantum: Lift1 target out of range")
	}
	return lift(op, target, n)
}

// Lift2 embeds a two-qubit operator acting on adjacent qubits (target,
// target+1) of an n-qubit system.
func Lift2(op *linalg.Matrix, target, n int) *linalg.Matrix {
	if op.Rows != 4 || op.Cols != 4 {
		panic("quantum: Lift2 needs a 4×4 operator")
	}
	if target < 0 || target+1 >= n {
		panic("quantum: Lift2 target out of range")
	}
	return lift(op, target, n)
}

// lift embeds the d×d operator op on the qubits starting at target.
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

// Conjugate returns U·ρ·U†.
func Conjugate(u, rho *linalg.Matrix) *linalg.Matrix {
	return linalg.MulChain(u, rho, linalg.Adjoint(u))
}

// ApplyGate1 applies a single-qubit unitary to qubit target of an n-qubit ρ.
func ApplyGate1(rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return ApplyGate1W(nil, rho, gate, target, n)
}

// ApplyGate1W is the workspace-threaded ApplyGate1: the result is a fresh ws
// matrix owned by the caller and ρ is untouched. A nil ws falls back to
// plain allocation.
func ApplyGate1W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return applyLocalW(ws, rho, 1, target, n, gate)
}

// ApplyGate2 applies a two-qubit unitary to adjacent qubits (target,
// target+1) of an n-qubit ρ.
func ApplyGate2(rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return ApplyGate2W(nil, rho, gate, target, n)
}

// ApplyGate2W is the workspace-threaded ApplyGate2; see ApplyGate1W for the
// ownership rules.
func ApplyGate2W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return applyLocalW(ws, rho, 2, target, n, gate)
}

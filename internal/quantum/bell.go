package quantum

import (
	"fmt"
	"math"
	"math/cmplx"

	"qnp/internal/linalg"
)

// BellIndex identifies one of the four Bell states by two bits: bit 0 is the
// bit-flip (X) component, bit 1 the phase-flip (Z) component, relative to
// |Φ+>. This is the two-bit value the paper's swap records carry and its
// TRACK messages accumulate ("the two-bit output of the entanglement swap").
//
//	Index 0 (x=0,z=0): |Φ+> = (|00>+|11>)/√2
//	Index 1 (x=1,z=0): |Ψ+> = (|01>+|10>)/√2
//	Index 2 (x=0,z=1): |Φ−> = (|00>−|11>)/√2
//	Index 3 (x=1,z=1): |Ψ−> = (|01>−|10>)/√2
type BellIndex uint8

// The four Bell states.
const (
	PhiPlus  BellIndex = 0
	PsiPlus  BellIndex = 1
	PhiMinus BellIndex = 2
	PsiMinus BellIndex = 3
)

// XBit returns the bit-flip component.
func (b BellIndex) XBit() uint8 { return uint8(b) & 1 }

// ZBit returns the phase-flip component.
func (b BellIndex) ZBit() uint8 { return (uint8(b) >> 1) & 1 }

// Combine returns the Bell index of the pair produced by an entanglement
// swap: the two input pairs' indices and the Bell-measurement outcome XOR
// component-wise. This is the "combine_state" function of Appendix C; its
// correctness against the exact post-measurement state is pinned by tests.
func Combine(a, b, outcome BellIndex) BellIndex { return a ^ b ^ outcome }

func (b BellIndex) String() string {
	switch b {
	case PhiPlus:
		return "Φ+"
	case PsiPlus:
		return "Ψ+"
	case PhiMinus:
		return "Φ−"
	case PsiMinus:
		return "Ψ−"
	}
	return fmt.Sprintf("BellIndex(%d)", uint8(b))
}

// Valid reports whether b is one of the four Bell states.
func (b BellIndex) Valid() bool { return b < 4 }

// BellVector returns the state vector |B_b> as a 4×1 column.
func BellVector(b BellIndex) *linalg.Matrix {
	s := complex(1/math.Sqrt2, 0)
	switch b {
	case PhiPlus:
		return linalg.ColumnVector(s, 0, 0, s)
	case PsiPlus:
		return linalg.ColumnVector(0, s, s, 0)
	case PhiMinus:
		return linalg.ColumnVector(s, 0, 0, -s)
	case PsiMinus:
		return linalg.ColumnVector(0, s, -s, 0)
	}
	panic("quantum: invalid BellIndex")
}

// BellProjector returns |B_b><B_b|. The result is fresh and may be mutated.
func BellProjector(b BellIndex) *linalg.Matrix {
	v := BellVector(b)
	return linalg.OuterProduct(v, v)
}

// bellVecCache and bellProjCache hold the four Bell vectors and projectors
// for read-only hot-path use; they are never handed out for mutation.
var (
	bellVecCache  [4]*linalg.Matrix
	bellProjCache [4]*linalg.Matrix
)

func init() {
	for b := BellIndex(0); b < 4; b++ {
		bellVecCache[b] = BellVector(b)
		bellProjCache[b] = BellProjector(b)
	}
}

// BellProjectorCached returns the shared, read-only projector |B_b><B_b|.
// Callers must NOT modify the result; use BellProjector for a mutable copy.
func BellProjectorCached(b BellIndex) *linalg.Matrix {
	if !b.Valid() {
		panic("quantum: invalid BellIndex")
	}
	return bellProjCache[b]
}

// Fidelity returns <B_b|ρ|B_b>, the fidelity of a two-qubit state with the
// pure Bell state b. This is the paper's fidelity metric: 1 means the pair is
// exactly in the desired state, below 0.5 means it is no longer usable.
// It is allocation-free: the metric runs on every delivery.
func Fidelity(rho *linalg.Matrix, b BellIndex) float64 {
	if rho.Rows != 4 || rho.Cols != 4 {
		panic("quantum: Fidelity needs a 4×4 density matrix")
	}
	v := bellVecCache[b]
	// <v|ρ|v> with the same accumulation order as Expectation(rho, v):
	// w = ρ·v with the Mul zero-skip, then Σ conj(v_i)·w_i.
	var w [4]complex128
	for i := 0; i < 4; i++ {
		row := rho.Data[i*4 : (i+1)*4]
		for k, av := range row {
			if av == 0 {
				continue
			}
			w[i] += linalg.CMul(av, v.Data[k])
		}
	}
	var s complex128
	for i := range w {
		s += linalg.CMul(cmplx.Conj(v.Data[i]), w[i])
	}
	return real(s)
}

// Package linalgtest holds the matrix checks and allocating conveniences
// that the tests of linalg, quantum, hardware and werner share. Production
// code uses the destination-passing …Into forms; only _test.go files import
// this package.
package linalgtest

import (
	"fmt"
	"math/cmplx"

	"qnp/internal/linalg"
)

// Add returns a+b.
func Add(a, b *linalg.Matrix) *linalg.Matrix {
	mustSameShape("Add", a, b)
	out := linalg.New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a-b.
func Sub(a, b *linalg.Matrix) *linalg.Matrix {
	mustSameShape("Sub", a, b)
	out := linalg.New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s·m.
func Scale(s complex128, m *linalg.Matrix) *linalg.Matrix {
	out := linalg.New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = linalg.CMul(s, v)
	}
	return out
}

// Adjoint returns the conjugate transpose m†.
func Adjoint(m *linalg.Matrix) *linalg.Matrix {
	out := linalg.New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = cmplx.Conj(m.At(i, j))
		}
	}
	return out
}

// ApproxEqual reports element-wise equality within tol.
func ApproxEqual(a, b *linalg.Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(m *linalg.Matrix) complex128 {
	if m.Rows != m.Cols {
		panic("linalgtest: Trace of a non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// IsHermitian reports whether m = m† within tol.
func IsHermitian(m *linalg.Matrix, tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// IsUnitary reports whether m·m† = I within tol.
func IsUnitary(m *linalg.Matrix, tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	return ApproxEqual(linalg.Mul(m, Adjoint(m)), linalg.Identity(m.Rows), tol)
}

// MaxAbsDiff returns the largest element-wise |a-b|.
func MaxAbsDiff(a, b *linalg.Matrix) float64 {
	mustSameShape("MaxAbsDiff", a, b)
	var max float64
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func mustSameShape(op string, a, b *linalg.Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalgtest: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

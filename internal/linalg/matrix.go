// Package linalg provides dense complex-matrix operations sized for quantum
// state manipulation: density matrices of one to four qubits (2×2 up to
// 16×16), gates, Kraus operators, tensor products and partial traces.
//
// The package is deliberately small and allocation-conscious rather than a
// general numerics library: the quantum engine composes thousands of small
// matrix products per simulated entanglement swap, and everything stays in
// plain []complex128 with row-major layout.
//
// MulInto's accumulation is part of its contract: each element starts at +0
// and adds a·b terms in ascending inner index, skipping zero entries of a.
// Package quantum's local gate kernels reproduce that order without forming
// the lifted operators, and rely on it to stay bit-identical: since a sum
// that starts at +0 is never −0, any term with an exact-zero factor can be
// skipped without changing a bit.
//
// Products, tensor products and partial traces have destination-passing
// twins (MulInto, KronInto, PartialTraceInto): each writes into a
// caller-provided matrix, and Workspace provides a size-bucketed pool those
// destinations come from. The allocating forms are thin wrappers over the
// Into forms, so both produce bit-identical results. Production code forms
// its sums and scalings entry by entry where it needs them; package
// linalgtest holds the sum, scaling and adjoint that tests use.
// See Workspace for the ownership rules: who may hold a matrix across calls,
// and when it must be returned to the pool.
package linalg

import (
	"fmt"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		panic("linalg: FromRows with no rows")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// ColumnVector builds an n×1 matrix from the given amplitudes.
func ColumnVector(v ...complex128) *Matrix {
	m := New(len(v), 1)
	copy(m.Data, v)
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	return MulInto(New(a.Rows, b.Cols), a, b)
}

// MulInto computes a·b into dst and returns dst. dst must have shape
// a.Rows×b.Cols and must not alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MulInto", dst, a.Rows, b.Cols)
	mustNotAlias("MulInto", dst, a)
	mustNotAlias("MulInto", dst, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s complex128) {
	for i, v := range m.Data {
		m.Data[i] = CMul(v, s)
	}
}

// CMul returns the complex product a·b as Go's a*b defines it, with each
// real product rounded (float64(x*y)) before the sum it enters. The Go
// spec lets a compiler fuse x*y + z into one multiply-add that rounds once
// instead of twice, and the arm64, ppc64le, s390x and riscv64 back ends
// do, also inside a complex product; the explicit conversion forbids it.
// amd64 never fuses, so there CMul compiles to the instructions of a*b and
// gives its bits. Products that feed a sum in the exact physics go through
// CMul so that their results are the same on every architecture.
func CMul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

// Kron returns the tensor (Kronecker) product a⊗b.
func Kron(a, b *Matrix) *Matrix {
	return KronInto(New(a.Rows*b.Rows, a.Cols*b.Cols), a, b)
}

// KronInto computes a⊗b into dst and returns dst. dst must have shape
// (a.Rows·b.Rows)×(a.Cols·b.Cols) and must not alias a or b.
func KronInto(dst, a, b *Matrix) *Matrix {
	mustShape("KronInto", dst, a.Rows*b.Rows, a.Cols*b.Cols)
	mustNotAlias("KronInto", dst, a)
	mustNotAlias("KronInto", dst, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := a.Data[i*a.Cols+j]
			if av == 0 {
				continue
			}
			for k := 0; k < b.Rows; k++ {
				base := (i*b.Rows+k)*dst.Cols + j*b.Cols
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for l, bv := range brow {
					dst.Data[base+l] = av * bv
				}
			}
		}
	}
	return dst
}

// PartialTrace traces out the subsystems whose indices appear in keep=false
// positions. dims gives the dimension of each subsystem in tensor order;
// keep[i] reports whether subsystem i survives. The input must be square with
// size equal to the product of dims.
func PartialTrace(m *Matrix, dims []int, keep []bool) *Matrix {
	keptDim := 1
	for i, k := range keep {
		if k {
			keptDim *= dims[i]
		}
	}
	return PartialTraceInto(New(keptDim, keptDim), m, dims, keep)
}

// PartialTraceInto computes the partial trace into dst and returns dst. dst
// must be square with size equal to the product of the kept dims and must
// not alias m. See PartialTrace for the semantics of dims and keep.
func PartialTraceInto(dst, m *Matrix, dims []int, keep []bool) *Matrix {
	mustSquare("PartialTraceInto", m)
	if len(dims) != len(keep) {
		panic("linalg: dims/keep length mismatch")
	}
	total := 1
	for _, d := range dims {
		total *= d
	}
	if total != m.Rows {
		panic(fmt.Sprintf("linalg: dims product %d != matrix size %d", total, m.Rows))
	}
	keptDim := 1
	for i, k := range keep {
		if k {
			keptDim *= dims[i]
		}
	}
	mustShape("PartialTraceInto", dst, keptDim, keptDim)
	mustNotAlias("PartialTraceInto", dst, m)
	dst.Zero()
	st := ptState{m: m, out: dst, dims: dims, keep: keep, keptDim: keptDim}
	st.rec(0, 0, 0, 0, 0)
	return dst
}

// ptState carries the partial-trace recursion without a heap-allocated
// closure; the recursion visits all (row, col) pairs of the input and folds
// into the output when the traced-out indices coincide.
type ptState struct {
	m, out  *Matrix
	dims    []int
	keep    []bool
	keptDim int
}

func (st *ptState) rec(pos, rowKept, colKept, rowFull, colFull int) {
	if pos == len(st.dims) {
		st.out.Data[rowKept*st.keptDim+colKept] += st.m.Data[rowFull*st.m.Cols+colFull]
		return
	}
	d := st.dims[pos]
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			if st.keep[pos] {
				st.rec(pos+1, rowKept*d+a, colKept*d+b, rowFull*d+a, colFull*d+b)
			} else if a == b {
				st.rec(pos+1, rowKept, colKept, rowFull*d+a, colFull*d+b)
			}
		}
	}
}

// OuterProduct returns |v><w| for column vectors v, w.
func OuterProduct(v, w *Matrix) *Matrix {
	if v.Cols != 1 || w.Cols != 1 {
		panic("linalg: OuterProduct needs column vectors")
	}
	out := New(v.Rows, w.Rows)
	for i := 0; i < v.Rows; i++ {
		for j := 0; j < w.Rows; j++ {
			out.Data[i*out.Cols+j] = v.Data[i] * cmplx.Conj(w.Data[j])
		}
	}
	return out
}

// InnerProduct returns <v|w> for column vectors.
func InnerProduct(v, w *Matrix) complex128 {
	if v.Cols != 1 || w.Cols != 1 || v.Rows != w.Rows {
		panic("linalg: InnerProduct shape mismatch")
	}
	var s complex128
	for i := range v.Data {
		s += cmplx.Conj(v.Data[i]) * w.Data[i]
	}
	return s
}

// Expectation returns <v|M|v> for a column vector v and square M.
func Expectation(m, v *Matrix) complex128 {
	return InnerProduct(v, Mul(m, v))
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "%7.4f%+7.4fi ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func mustSquare(op string, m *Matrix) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: %s needs square matrix, got %d×%d", op, m.Rows, m.Cols))
	}
}

func mustShape(op string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("linalg: %s dst shape %d×%d, want %d×%d", op, m.Rows, m.Cols, rows, cols))
	}
}

// mustNotAlias rejects a dst that shares its buffer with an input. Buffers
// come from distinct allocations, so comparing the first element's address
// is sufficient — partial overlap cannot occur.
func mustNotAlias(op string, dst, src *Matrix) {
	if len(dst.Data) > 0 && len(src.Data) > 0 && &dst.Data[0] == &src.Data[0] {
		panic(fmt.Sprintf("linalg: %s dst aliases an input", op))
	}
}

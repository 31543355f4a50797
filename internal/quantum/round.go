package quantum

// Every product in this package that feeds a sum or a difference is
// rounded before it enters it: complex products through linalg.CMul, real
// ones through scale and twice. The Go spec lets a compiler fuse x*y + z
// into one multiply-add that rounds once instead of twice, and the arm64,
// ppc64le, s390x and riscv64 back ends do; an explicit conversion to
// float64 rounds the product and forbids the fusion. amd64 never fuses,
// so there these forms compile to the instructions of the plain
// expressions and give the same bits. TestNoFusedMultiplyAdd keeps the
// package's arm64 assembly free of fused instructions.

// scale returns s·x for a real s, component by component. For a finite x
// it equals linalg.CMul(complex(s, 0), x) up to the sign of a zero
// component: the complex product adds an exact ±0 (0·x) to each of these
// products.
func scale(s float64, x complex128) complex128 {
	return complex(float64(s*real(x)), float64(s*imag(x)))
}

// twice returns (s·x)·s for a real s: the term a real Kraus factor s adds
// to an entry x of K·X·K†.
func twice(s float64, x complex128) complex128 { return scale(s, scale(s, x)) }

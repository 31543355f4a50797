package quantum

import (
	"math"
	"math/bits"
	"math/cmplx"

	"qnp/internal/linalg"
)

// Local kernels: every gate, Kraus channel and projector acts on its one or
// two target qubits by index arithmetic on ρ. The 2ⁿ×2ⁿ lift of the
// operator is never built.
//
// A basis index i of an n-qubit state splits as i = (hi·2ᵏ + a)·2ˢ + lo,
// where a is the local index of the k target qubits and s = n − target − k.
// The lifted operator U = I⊗u⊗I has U[i][i'] = u[a][a'] when i and i' agree
// outside the target bits, and an exact zero otherwise. So U·ρ·U† maps each
// 2ᵏ×2ᵏ block of ρ whose rows and columns share their non-target bits onto
// the same block of the result, as u·X·u†, and the kernels work block by
// block.
//
// The kernels are bit-identical to the lifted product MulInto(MulInto(U, ρ),
// U†), signed zeros included. MulInto starts each element at +0, adds terms
// in ascending inner index and forms each term as av*bv; the kernels do the
// same. Under round-to-nearest a sum that starts at +0 is never −0 (x + y is
// −0 only when both are), so adding a term that is ±0 leaves the sum's bits
// unchanged. Skipping every term with an exact-zero factor, as the kernels
// do, therefore changes nothing, and neither does the sign of a zero
// intermediate that only ever enters such a sum.

// site is where a k-qubit operator acts inside an n-qubit state.
type site struct {
	dim   int  // 2ⁿ
	shift uint // s: basis index i has local index (i >> s) & mask
	mask  int  // 2ᵏ − 1
}

// siteOf validates a k-qubit operator on qubits target … target+k−1 of the
// n-qubit ρ and returns its site.
func siteOf(rho *linalg.Matrix, k, target, n int) site {
	if target < 0 || target+k > n {
		panic("quantum: target out of range")
	}
	st := site{dim: 1 << n, shift: uint(n - target - k), mask: 1<<k - 1}
	if rho.Rows != st.dim || rho.Cols != st.dim {
		panic("quantum: state dimension does not match the qubit count")
	}
	return st
}

// localOp is a 2ᵏ×2ᵏ operator (k ≤ 2) prepared for the kernel. Entry (a, c)
// sits at u[a*4+c] whatever the size, so a 2×2 uses the top-left corner.
type localOp struct {
	d int
	u [16]complex128
	// rowSparse marks at most one nonzero per row (Paulis, CNOT, CZ, SWAP,
	// T, projectors and the Kraus factors of amplitude damping, phase flip
	// and depolarising noise). Then inv[c] is the bitmask of the rows whose
	// nonzero sits in column c.
	rowSparse bool
	inv       [4]uint8
}

// toLocalOp copies the k-qubit operator m into a localOp.
func toLocalOp(m *linalg.Matrix, k int) localOp {
	d := 1 << k
	if m.Rows != d || m.Cols != d {
		panic("quantum: operator size does not match its qubit count")
	}
	o := localOp{d: d}
	for a := 0; a < d; a++ {
		copy(o.u[a*4:a*4+d], m.Data[a*d:(a+1)*d])
	}
	o.index()
	return o
}

// index sets rowSparse and inv from the entries.
func (o *localOp) index() {
	o.rowSparse, o.inv = true, [4]uint8{}
	for a := 0; a < o.d; a++ {
		nnz := 0
		for c := 0; c < o.d; c++ {
			if o.u[a*4+c] != 0 {
				nnz++
				o.inv[c] |= 1 << a
			}
		}
		if nnz > 1 {
			o.rowSparse = false
		}
	}
}

// block is one 2ᵏ×2ᵏ block of ρ and the same block of the result: local
// entry (a, c) is basis element (i0 + a·2ˢ, j0 + c·2ˢ).
type block struct {
	out    []complex128
	dim    int
	shift  uint
	i0, j0 int
	x      [16]complex128 // ρ's block, entry (a, c) at x[a*4+c]
	nz     [16]uint8      // positions a*4+c of x's nonzeros
	n      int
}

func (b *block) at(a, c int) int {
	return (b.i0+a<<b.shift)*b.dim + b.j0 + c<<b.shift
}

// addSparse adds u·X·u† for a row-sparse u. Row a of u holds u[a][π(a)],
// so entry (a, c) of the product has the single term
// (u[a][π(a)]·X[π(a)][π(c)])·conj(u[c][π(c)]); each nonzero of X feeds the
// entries whose rows and columns map onto it.
func (o *localOp) addSparse(b *block) {
	for _, e := range b.nz[:b.n] {
		br, bc := int(e>>2), int(e&3)
		for ri := o.inv[br]; ri != 0; ri &= ri - 1 {
			a := bits.TrailingZeros8(ri)
			vx := linalg.CMul(o.u[a*4+br], b.x[e])
			for rj := o.inv[bc]; rj != 0; rj &= rj - 1 {
				c := bits.TrailingZeros8(rj)
				b.out[b.at(a, c)] += linalg.CMul(vx, cmplx.Conj(o.u[c*4+bc]))
			}
		}
	}
}

// addDense adds u·X·u† for any u, in the lifted product's two stages: t =
// u·X, then each entry of t·u† summed from +0 and added to the result.
func (o *localOp) addDense(b *block) {
	d := o.d
	var t [16]complex128
	for a := 0; a < d; a++ {
		for c := 0; c < d; c++ {
			var acc complex128
			for k := 0; k < d; k++ {
				if u := o.u[a*4+k]; u != 0 {
					acc += linalg.CMul(u, b.x[k*4+c])
				}
			}
			t[a*4+c] = acc
		}
	}
	for a := 0; a < d; a++ {
		for c := 0; c < d; c++ {
			var acc complex128
			for k := 0; k < d; k++ {
				if u := o.u[c*4+k]; u != 0 {
					acc += linalg.CMul(t[a*4+k], cmplx.Conj(u))
				}
			}
			b.out[b.at(a, c)] += acc
		}
	}
}

// addConj adds Σ K·ρ·K† over ops to out, one block at a time. Within a
// block the operators apply in ops order, so every element accumulates its
// terms in Kraus order. All-zero blocks contribute nothing and are skipped.
func addConj(out, rho *linalg.Matrix, st site, ops []localOp) {
	d := st.mask + 1
	lmask := st.mask << st.shift
	b := block{out: out.Data, dim: st.dim, shift: st.shift}
	for b.i0 = 0; b.i0 < st.dim; b.i0++ {
		if b.i0&lmask != 0 {
			continue
		}
		for b.j0 = 0; b.j0 < st.dim; b.j0++ {
			if b.j0&lmask != 0 {
				continue
			}
			b.n = 0
			for a := 0; a < d; a++ {
				for c := 0; c < d; c++ {
					v := rho.Data[b.at(a, c)]
					b.x[a*4+c] = v
					if v != 0 {
						b.nz[b.n] = uint8(a*4 + c)
						b.n++
					}
				}
			}
			if b.n == 0 {
				continue
			}
			for i := range ops {
				if ops[i].rowSparse {
					ops[i].addSparse(&b)
				} else {
					ops[i].addDense(&b)
				}
			}
		}
	}
}

// applyOpsW returns Σ K·ρ·K† over the k-qubit ops on qubits target …
// target+k−1 of the n-qubit ρ, accumulated in ops order, as a fresh ws
// matrix owned by the caller. A single operator is a gate.
func applyOpsW(ws *linalg.Workspace, rho *linalg.Matrix, k, target, n int, ops ...localOp) *linalg.Matrix {
	st := siteOf(rho, k, target, n)
	out := ws.Get(rho.Rows, rho.Cols)
	addConj(out, rho, st, ops)
	return out
}

// The Pauli operators and their two-qubit products, the depolarising
// channels' Kraus factors before scaling, and the projectors. Read-only.
var (
	paulis1 [4]monomial
	paulis2 [16]monomial
	proj0Op = toLocalOp(proj0, 1)
	proj1Op = toLocalOp(proj1, 1)
)

func init() {
	for m := range paulis1 {
		paulis1[m] = toMonomial(toLocalOp(Pauli(m), 1))
	}
	for m := range paulis2 {
		paulis2[m] = toMonomial(toLocalOp(linalg.Kron(Pauli(m/4), Pauli(m%4)), 2))
	}
}

// monomial is a 2ᵏ×2ᵏ operator (k ≤ 2) whose row a holds its one
// nonzero, v[a], in column a^f; v[a] = 0 leaves row a empty. Every Pauli
// product has this shape, and so does each Kraus factor of amplitude
// damping and of the phase flip.
type monomial struct {
	d, f int
	v    [4]complex128
}

// toMonomial reads the monomial-shaped operator o.
func toMonomial(o localOp) monomial {
	m := monomial{d: o.d}
	for o.u[m.f] == 0 { // row 0's nonzero sits in column f
		m.f++
	}
	for a := 0; a < o.d; a++ {
		m.v[a] = o.u[a*4+(a^m.f)]
	}
	return m
}

// localOp returns m prepared for the block kernels.
func (m *monomial) localOp() localOp {
	o := localOp{d: m.d}
	for a := 0; a < m.d; a++ {
		o.u[a*4+(a^m.f)] = m.v[a]
	}
	o.index()
	return o
}

// depolarizingAmp is the coefficient of Kraus factor m of the k-qubit
// depolarising channel with probability p: factor m is amp·Pauli(m) for
// k = 1 and amp·(Pauli(m/4)⊗Pauli(m%4)) for k = 2.
func depolarizingAmp(p float64, k, m int) float64 {
	switch {
	case k == 1 && m == 0:
		return math.Sqrt(1 - float64(3*p/4))
	case k == 1:
		return math.Sqrt(p / 4)
	case m == 0:
		return math.Sqrt(1 - float64(15*p/16))
	}
	return math.Sqrt(p / 16)
}

// depolarizingTerms writes the Kraus factors of the k-qubit depolarising
// channel with probability p into dst, in Pauli order, and returns the
// factors written. Each factor's nonzeros are the complex products amp·v
// that the scaled Kraus matrix holds; a factor whose amp is 0 adds nothing
// and is dropped.
func depolarizingTerms(dst []monomial, p float64, k int) []monomial {
	p = clamp01(p)
	paulis := paulis1[:]
	if k == 2 {
		paulis = paulis2[:]
	}
	n := 0
	for m := range paulis {
		amp := depolarizingAmp(p, k, m)
		if amp == 0 {
			continue
		}
		t := &dst[n]
		*t = paulis[m]
		for a := 0; a < t.d; a++ {
			t.v[a] = linalg.CMul(complex(amp, 0), t.v[a])
		}
		n++
	}
	return dst[:n]
}

// applyDepolarizingW applies the k-qubit depolarising channel with
// probability p, ρ → (1−p)ρ + p·I/2ᵏ over the 4ᵏ Paulis, without building
// its Kraus matrices.
func applyDepolarizingW(ws *linalg.Workspace, rho *linalg.Matrix, p float64, k, target, n int) *linalg.Matrix {
	if k == 1 {
		return ApplyDepolarizing1W(ws, rho, p, target, n)
	}
	var factors [16]monomial
	var ops [16]localOp
	terms := depolarizingTerms(factors[:], p, k)
	for t := range terms {
		ops[t] = terms[t].localOp()
	}
	return applyOpsW(ws, rho, k, target, n, ops[:len(terms)]...)
}

// pass1W returns a fresh ws matrix holding the noise ch applied to qubit
// target of the n-qubit ρ, one 2×2 block at a time: each block of ρ is
// read once, goes through every stage of ch on the stack and is written
// once. Every entry of the result is written, so it needs no zero fill.
// ρ is untouched.
func pass1W(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, ch *noise1) *linalg.Matrix {
	st := siteOf(rho, 1, target, n)
	out := ws.GetRaw(rho.Rows, rho.Cols)
	src, dst := rho.Data, out.Data
	h := 1 << st.shift
	hr := h * st.dim // from row i to row i + 2ˢ
	for i0 := 0; i0 < st.dim; i0++ {
		if i0&h != 0 {
			i0 += h - 1
			continue
		}
		for j0 := 0; j0 < st.dim; j0++ {
			if j0&h != 0 {
				j0 += h - 1
				continue
			}
			e := i0*st.dim + j0
			dst[e], dst[e+h], dst[e+hr], dst[e+hr+h] = ch.apply(src[e], src[e+h], src[e+hr], src[e+hr+h])
		}
	}
	return out
}

package quantum

import (
	"math/rand"

	"qnp/internal/linalg"
)

// Basis selects a single-qubit measurement basis.
type Basis uint8

// Measurement bases. ZBasis is the computational basis; X and Y are reached
// by basis-change rotations before a Z measurement, exactly as on hardware.
const (
	ZBasis Basis = iota
	XBasis
	YBasis
)

func (b Basis) String() string {
	switch b {
	case ZBasis:
		return "Z"
	case XBasis:
		return "X"
	case YBasis:
		return "Y"
	}
	return "Basis(?)"
}

// Readout models a noisy single-qubit readout: F0 is the probability of
// reporting 0 when the projected state is |0>, F1 of reporting 1 when it is
// |1>. Table 1's "electron readout" rows populate this.
type Readout struct {
	F0, F1 float64
}

// PerfectReadout reports outcomes faithfully.
var PerfectReadout = Readout{F0: 1, F1: 1}

var (
	proj0 = linalg.FromRows([][]complex128{{1, 0}, {0, 0}})
	proj1 = linalg.FromRows([][]complex128{{0, 0}, {0, 1}})
)

// MeasureW performs a Z-basis measurement of qubit target of an n-qubit ρ.
// It samples the physical outcome from ρ, projects ρ accordingly (the
// physical collapse is faithful), then flips the *reported* classical bit
// with the readout error probability. It returns the reported bit and the
// normalised post-measurement state (same dimension; the measured qubit
// remains, collapsed), a fresh ws matrix owned by the caller; ρ is
// untouched. A nil ws allocates the post state instead.
func MeasureW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, ro Readout, rng *rand.Rand) (bit int, post *linalg.Matrix) {
	// p0 = Re Tr(P0·ρ): the diagonal of the lifted product is ρ[i][i] on
	// the rows whose target bit is 0 and +0 elsewhere, so the trace is the
	// ascending sum of those real parts from +0 (see local.go on zeros).
	st := siteOf(rho, 1, target, n)
	var p0 float64
	for i := 0; i < st.dim; i++ {
		if (i>>st.shift)&1 == 0 {
			p0 += real(rho.Data[i*st.dim+i])
		}
	}
	truth, bit, prob := collapse(p0, ro, rng)
	proj := proj1Op
	if truth == 0 {
		proj = proj0Op
	}
	post = applyOpsW(ws, rho, 1, target, n, proj)
	if prob > minRenormProb {
		post.ScaleInPlace(complex(1/prob, 0))
	}
	return bit, post
}

// collapse samples a Z measurement whose outcome 0 has probability p0,
// clamped to [0, 1]: first the physical outcome truth, then the reported
// bit under the readout model. prob is the probability of truth.
func collapse(p0 float64, ro Readout, rng *rand.Rand) (truth, bit int, prob float64) {
	p0 = clamp01(p0)
	truth, prob = 1, 1-p0
	if rng.Float64() < p0 {
		truth, prob = 0, p0
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
	return truth, bit, prob
}

// minRenormProb is the outcome probability at or below which a
// post-measurement state is left unnormalised.
const minRenormProb = 1e-15

// renormalize is the post-measurement rescale of one entry.
func renormalize(v complex128, prob float64) complex128 {
	if prob > minRenormProb {
		v *= complex(1/prob, 0)
	}
	return v
}

// MeasureInBasisW rotates qubit target into the requested basis and performs
// a Z measurement. The rotation is noiseless (Table 1: electron single-qubit
// gate fidelity 1.0); readout noise and ownership are as in MeasureW.
func MeasureInBasisW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, basis Basis, ro Readout, rng *rand.Rand) (bit int, post *linalg.Matrix) {
	in := rho
	switch basis {
	case XBasis:
		in = ApplyGate1W(ws, in, H, target, n)
	case YBasis:
		in = ApplyGate1W(ws, in, SDagger, target, n)
		rot := ApplyGate1W(ws, in, H, target, n)
		ws.Put(in)
		in = rot
	}
	bit, post = MeasureW(ws, in, target, n, ro, rng)
	if in != rho {
		ws.Put(in)
	}
	return bit, post
}

package quantum

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qnp/internal/linalg"
	"qnp/internal/linalg/linalgtest"
)

// The Kraus forms the kernel tests use as their reference must be valid
// channels.
func TestChannelsTracePreserving(t *testing.T) {
	cases := map[string]kraus{
		"amplitudeDamping(0.3)": amplitudeDamping(0.3),
		"amplitudeDamping(1)":   amplitudeDamping(1),
		"phaseFlip(0.2)":        phaseFlip(0.2),
		"depolarizing1(0.5)":    depolarizing1(0.5),
		"depolarizing2(0.1)":    depolarizing2(0.1),
	}
	for name, k := range cases {
		if !k.isTracePreserving(tol) {
			t.Errorf("%s not trace preserving", name)
		}
	}
	if (kraus{}).isTracePreserving(tol) {
		t.Error("empty Kraus accepted")
	}
}

// channel1 is a single-qubit noise channel the engine applies, acting on
// qubit target of a two-qubit state.
type channel1 struct {
	name  string
	apply func(rho *linalg.Matrix, target int) *linalg.Matrix
}

// channels1 returns the engine's single-qubit noise channels at strength p.
// Amplitude damping is reached through DecohereW with T1 only, at the time
// where γ = 1 − e^(−t/T1) equals p.
func channels1(p float64) []channel1 {
	tDamp := -math.Log1p(-math.Min(p, 1-1e-12))
	return []channel1{
		{"amplitude damping", func(rho *linalg.Matrix, target int) *linalg.Matrix {
			return DecohereW(nil, rho, target, 2, tDamp, 1, 0)
		}},
		{"phase flip", func(rho *linalg.Matrix, target int) *linalg.Matrix {
			return ApplyPhaseFlipW(nil, rho, p, target, 2)
		}},
		{"depolarizing", func(rho *linalg.Matrix, target int) *linalg.Matrix {
			return ApplyDepolarizing1W(nil, rho, p, target, 2)
		}},
	}
}

func TestChannelPreservesDensityMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rho := randDensity(rng, 4)
	for _, ch := range channels1(0.3) {
		out := ch.apply(rho, 0)
		if math.Abs(real(linalgtest.Trace(out))-1) > 1e-9 {
			t.Errorf("%s: trace not preserved", ch.name)
		}
		if !linalgtest.IsHermitian(out, 1e-9) {
			t.Errorf("%s: hermiticity not preserved", ch.name)
		}
	}
	out := applyDepolarizingW(nil, rho, 0.3, 2, 0, 2)
	if math.Abs(real(linalgtest.Trace(out))-1) > 1e-9 {
		t.Error("trace not preserved through two-qubit depolarising")
	}
}

// Dephasing of one qubit of Φ+ mixes it with Φ−:
// F(t) = 1 − p = (1 + exp(−t/T2)) / 2 when T1 = ∞.
func TestDephasingFidelityDecay(t *testing.T) {
	t2 := 1.0
	for _, dt := range []float64{0, 0.1, 0.5, 1, 5} {
		rho := DecohereW(nil, BellProjector(PhiPlus), 0, 2, dt, 0, t2)
		want := (1 + math.Exp(-dt/t2)) / 2
		if got := Fidelity(rho, PhiPlus); math.Abs(got-want) > 1e-9 {
			t.Errorf("dephasing t=%v: F=%v, want %v", dt, got, want)
		}
	}
}

func TestDecohereBothMechanisms(t *testing.T) {
	rho := BellProjector(PhiPlus)
	// T1-only decay must also reduce fidelity (relaxation towards |00>).
	r1 := DecohereW(nil, rho, 0, 2, 1.0, 1.0, 0)
	if f := Fidelity(r1, PhiPlus); f >= 1 || f < 0.5 {
		t.Errorf("T1 decay fidelity = %v", f)
	}
	// Infinite lifetimes: no change.
	r2 := DecohereW(nil, rho, 0, 2, 1.0, 0, 0)
	if !linalgtest.ApproxEqual(r2, rho, tol) {
		t.Error("decoherence with no lifetimes changed the state")
	}
	// Decohering both qubits of the pair compounds.
	r3 := DecohereW(nil, DecohereW(nil, rho, 0, 2, 0.5, 0, 1), 1, 2, 0.5, 0, 1)
	f3 := Fidelity(r3, PhiPlus)
	fSingle := Fidelity(DecohereW(nil, rho, 0, 2, 0.5, 0, 1), PhiPlus)
	if f3 >= fSingle {
		t.Errorf("two-sided decoherence (%v) not worse than one-sided (%v)", f3, fSingle)
	}
}

func TestDecoherenceProbabilities(t *testing.T) {
	g, p := DecoherenceProbabilities(0, 1, 1)
	if g != 0 || p != 0 {
		t.Error("t=0 must not decay")
	}
	g, p = DecoherenceProbabilities(1, 0, 1)
	if g != 0 || p <= 0 {
		t.Errorf("T1=∞: gamma=%v p=%v", g, p)
	}
	// T2* = 2·T1 means pure dephasing is exactly zero.
	_, p = DecoherenceProbabilities(1, 1, 2)
	if p != 0 {
		t.Errorf("T2*=2T1 should have zero pure dephasing, got %v", p)
	}
	// Long times saturate.
	g, p = DecoherenceProbabilities(1e6, 1, 0.1)
	if math.Abs(g-1) > 1e-9 || math.Abs(p-0.5) > 1e-9 {
		t.Errorf("saturation: gamma=%v p=%v", g, p)
	}
}

func TestDepolarizingFixedPoint(t *testing.T) {
	// The maximally mixed state is a fixed point of depolarising noise.
	mixed := linalgtest.Scale(0.25, linalg.Identity(4))
	out := applyDepolarizingW(nil, mixed, 0.7, 2, 0, 2)
	if !linalgtest.ApproxEqual(out, mixed, 1e-9) {
		t.Error("depolarising moved the maximally mixed state")
	}
	// Full two-qubit depolarising sends anything to maximally mixed.
	out = applyDepolarizingW(nil, BellProjector(PhiPlus), 1, 2, 0, 2)
	if !linalgtest.ApproxEqual(out, mixed, 1e-9) {
		t.Error("p=1 depolarising did not fully mix")
	}
}

func TestNoisyGates(t *testing.T) {
	// A perfect noisy gate is just the gate.
	rho := BellProjector(PhiPlus)
	if !linalgtest.ApproxEqual(NoisyGate2W(nil, rho, CNOT, 0, 2, 1), ApplyGate2W(nil, rho, CNOT, 0, 2), tol) {
		t.Error("NoisyGate2W with f=1 differs from perfect gate")
	}
	if !linalgtest.ApproxEqual(NoisyGate1W(nil, rho, H, 0, 2, 1), ApplyGate1W(nil, rho, H, 0, 2), tol) {
		t.Error("NoisyGate1W with f=1 differs from perfect gate")
	}
	// Imperfect gates reduce Bell fidelity.
	out := NoisyGate2W(nil, rho, linalg.Identity(4), 0, 2, 0.99)
	if f := Fidelity(out, PhiPlus); f >= 1 || f < 0.98 {
		t.Errorf("0.99-fidelity identity gate gives F=%v", f)
	}
}

func TestRotationGatesUnitary(t *testing.T) {
	for _, th := range []float64{0, 0.3, math.Pi / 2, math.Pi, 2.5} {
		if !linalgtest.IsUnitary(Rx(th), tol) {
			t.Errorf("Rx(%v) not unitary", th)
		}
	}
	// Rx(π) = −iX up to phase: conjugation equals X conjugation.
	rho := randDensity(rand.New(rand.NewSource(2)), 2)
	a := ApplyGate1W(nil, rho, Rx(math.Pi), 0, 1)
	b := ApplyGate1W(nil, rho, X, 0, 1)
	if !linalgtest.ApproxEqual(a, b, 1e-9) {
		t.Error("Rx(π) does not act like X")
	}
}

func TestStandardGatesUnitary(t *testing.T) {
	for name, g := range map[string]*linalg.Matrix{
		"X": X, "Y": Y, "Z": Z, "H": H, "S": gateS, "SDagger": SDagger, "T": gateT,
		"CNOT": CNOT, "CZ": gateCZ, "SWAP": SWAP,
	} {
		if !linalgtest.IsUnitary(g, tol) {
			t.Errorf("%s not unitary", name)
		}
	}
	// H|0> = |+>, CNOT on |+0> gives Φ+.
	zero := linalg.ColumnVector(1, 0, 0, 0)
	rho := linalg.OuterProduct(zero, zero)
	rho = ApplyGate1W(nil, rho, H, 0, 2)
	rho = ApplyGate2W(nil, rho, CNOT, 0, 2)
	if f := Fidelity(rho, PhiPlus); math.Abs(f-1) > tol {
		t.Errorf("H+CNOT Bell prep fidelity = %v", f)
	}
}

func TestLiftPlacement(t *testing.T) {
	// X on qubit 1 of 3 maps |000> to |010>.
	v := linalg.New(8, 1)
	v.Data[0] = 1
	rho := linalg.OuterProduct(v, v)
	out := ApplyGate1W(nil, rho, X, 1, 3)
	if got := real(out.At(2, 2)); math.Abs(got-1) > tol {
		t.Errorf("X on middle qubit: population at |010> = %v", got)
	}
	// CNOT on (1,2) of 3 qubits: |010> → |011>.
	out = ApplyGate2W(nil, out, CNOT, 1, 3)
	if got := real(out.At(3, 3)); math.Abs(got-1) > tol {
		t.Errorf("CNOT on (1,2): population at |011> = %v", got)
	}
}

// Property: channels keep eigen-structure sane — output diagonal entries in
// computational basis stay in [0,1] and sum to 1 for random inputs.
func TestQuickChannelValidity(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := float64(pRaw) / 255
		rho := randDensity(rng, 4)
		for _, ch := range channels1(p) {
			out := ch.apply(rho, rng.Intn(2))
			var sum float64
			for i := 0; i < 4; i++ {
				d := real(out.At(i, i))
				if d < -1e-9 || d > 1+1e-9 {
					return false
				}
				sum += d
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// op2 builds the single-qubit localOp [[u00, u01], [u10, u11]].
func op2(u00, u01, u10, u11 complex128) localOp {
	o := localOp{d: 2}
	o.u[0], o.u[1], o.u[4], o.u[5] = u00, u01, u10, u11
	o.index()
	return o
}

// refDecohereW is the two-pass decoherence that DecohereW must equal bit
// for bit: the amplitude-damping Kraus pair through the block kernel, then
// the phase-flip Kraus pair as a second pass over the damped state.
func refDecohereW(ws *linalg.Workspace, rho *linalg.Matrix, target, n int, t, t1, t2star float64) *linalg.Matrix {
	gamma, pflip := DecoherenceProbabilities(t, t1, t2star)
	out := rho
	if gamma > 0 {
		out = applyOpsW(ws, out, 1, target, n,
			op2(1, 0, 0, complex(math.Sqrt(1-gamma), 0)),
			op2(0, complex(math.Sqrt(gamma), 0), 0, 0))
	}
	if pflip > 0 {
		p := clamp01(pflip)
		s0 := complex(math.Sqrt(1-p), 0)
		next := applyOpsW(ws, out, 1, target, n,
			op2(s0, 0, 0, s0),
			op2(complex(math.Sqrt(p), 0), 0, 0, complex(-math.Sqrt(p), 0)))
		if out != rho {
			ws.Put(out)
		}
		out = next
	}
	return out
}

// checkDecohereMatchesRef requires DecohereW to equal refDecohereW bit for
// bit, to return rho itself exactly when the reference does, and to leave
// rho untouched.
func checkDecohereMatchesRef(t *testing.T, name string, rho *linalg.Matrix, target, n int, dt, t1, t2star float64) {
	t.Helper()
	before := linalg.New(rho.Rows, rho.Cols)
	copy(before.Data, rho.Data)
	got := DecohereW(nil, rho, target, n, dt, t1, t2star)
	want := refDecohereW(nil, rho, target, n, dt, t1, t2star)
	if (got == rho) != (want == rho) {
		t.Fatalf("%s: returns rho itself: %v, reference %v", name, got == rho, want == rho)
	}
	if !sameBits(got, want) {
		t.Fatalf("%s: differs from the two-pass reference bit for bit:\n%v\nreference:\n%v", name, got, want)
	}
	if !sameBits(rho, before) {
		t.Fatalf("%s: modified its input", name)
	}
}

// randomMatrix fills a 2ⁿ×2ⁿ matrix with components uniform in [−1, 1],
// about a quarter of them exact zeros of either sign.
func randomMatrix(rng *rand.Rand, n int) *linalg.Matrix {
	comp := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return 2*rng.Float64() - 1
	}
	m := linalg.New(1<<n, 1<<n)
	for e := range m.Data {
		m.Data[e] = complex(comp(), comp())
	}
	return m
}

// decoherenceCases are idle times and lifetimes (t, T1, T2*) that put γ at
// 0, strictly between and 1, and p at 0, strictly between and its
// saturation ½, in every combination.
var decoherenceCases = [][3]float64{
	{0, 1, 1},               // no idle time
	{1, 0, 0},               // no lifetimes
	{1, math.Inf(1), 0},     // T1 = ∞
	{0.3, 1, 0},             // damping only
	{1, 1, 2},               // T2* = 2·T1: damping only
	{1, 1e-3, 0},            // γ = 1
	{0.3, 0, 0.4},           // dephasing only
	{0.3, math.Inf(1), 0.4}, // dephasing only, T1 = ∞
	{1e3, 0, 1},             // p = ½
	{0.3, 1, 0.4},           // both
	{0.01, 1, 0.5},          // both
	{1, 1e-3, 1.0 / 501},    // γ = 1, p between
	{1e6, 1, 0.1},           // γ = 1, p = ½
	{1e3, 1e6, 1},           // γ between, p = ½
}

// TestDecohereWMatchesTwoPassReference pins DecohereW to refDecohereW over
// Hermitian and general random states with signed zeros, every qubit count
// 1–4, every target, and each decoherence case plus random ones.
func TestDecohereWMatchesTwoPassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	lifetime := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		}
		return rng.ExpFloat64()
	}
	for n := 1; n <= 4; n++ {
		for trial := 0; trial < 6; trial++ {
			var rho *linalg.Matrix
			if trial%2 == 0 {
				rho = randomState(rng, n)
			} else {
				rho = randomMatrix(rng, n)
			}
			for target := 0; target < n; target++ {
				at := fmt.Sprintf("n=%d target=%d trial=%d", n, target, trial)
				for _, c := range decoherenceCases {
					checkDecohereMatchesRef(t, fmt.Sprintf("%s t=%v T1=%v T2*=%v", at, c[0], c[1], c[2]), rho, target, n, c[0], c[1], c[2])
				}
				for r := 0; r < 8; r++ {
					dt, t1, t2 := 2*rng.Float64(), lifetime(), lifetime()
					checkDecohereMatchesRef(t, fmt.Sprintf("%s t=%v T1=%v T2*=%v", at, dt, t1, t2), rho, target, n, dt, t1, t2)
				}
			}
		}
	}
}

// FuzzDecohereWMatchesReference requires DecohereW to equal refDecohereW
// bit for bit on inputs decoded by decodeDecohereInput.
func FuzzDecohereWMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rho, target, n, dt, t1, t2star := decodeDecohereInput(data)
		checkDecohereMatchesRef(t, "fuzz", rho, target, n, dt, t1, t2star)
	})
}

// decodeDecohereInput reads the qubit count n = 1 + data[0]%4 and the
// target data[1]%n, then the idle time, T1 and T2* as big-endian float64s,
// then the 2ⁿ×2ⁿ input as 2·4ⁿ big-endian float64 components (real,
// imaginary; row-major). Missing bytes read as 0. The times are taken as
// they are: DecoherenceProbabilities maps every value, NaN and ±Inf
// included, to a γ and p that are either in [0, 1] or skipped. Components
// are clamped to [−1, 1], keeping the sign of zero, and NaN and ±Inf read
// as 0: the payload of a NaN sum depends on its operand order, which the
// compiler may pick differently in the two passes and the fused one.
func decodeDecohereInput(data []byte) (rho *linalg.Matrix, target, n int, dt, t1, t2star float64) {
	take := func(n int) []byte {
		var w [8]byte
		data = data[copy(w[:n], data):]
		return w[:n]
	}
	num := func() float64 { return math.Float64frombits(binary.BigEndian.Uint64(take(8))) }
	comp := func() float64 {
		v := num()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Max(-1, math.Min(1, v))
	}
	n = 1 + int(take(1)[0]%4)
	target = int(take(1)[0]) % n
	dt, t1, t2star = num(), num(), num()
	rho = linalg.New(1<<n, 1<<n)
	for e := range rho.Data {
		re := comp()
		rho.Data[e] = complex(re, comp())
	}
	return rho, target, n, dt, t1, t2star
}

// BenchmarkDecohereW times the one-pass kernel against the two-pass
// reference on a pair state with both mechanisms, on a warm workspace.
func BenchmarkDecohereW(b *testing.B) {
	rho := WernerFor(0.9, PhiPlus)
	for _, bc := range []struct {
		name     string
		decohere func(*linalg.Workspace, *linalg.Matrix, int, int, float64, float64, float64) *linalg.Matrix
	}{{"kernel", DecohereW}, {"reference", refDecohereW}} {
		b.Run(bc.name, func(b *testing.B) {
			ws := linalg.NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ws.Put(bc.decohere(ws, rho, i&1, 2, 0.01, 1, 0.5))
			}
		})
	}
}

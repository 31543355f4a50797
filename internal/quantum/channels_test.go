package quantum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qnp/internal/linalg"
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
		if math.Abs(real(linalg.Trace(out))-1) > 1e-9 {
			t.Errorf("%s: trace not preserved", ch.name)
		}
		if !linalg.IsHermitian(out, 1e-9) {
			t.Errorf("%s: hermiticity not preserved", ch.name)
		}
	}
	out := applyDepolarizingW(nil, rho, 0.3, 2, 0, 2)
	if math.Abs(real(linalg.Trace(out))-1) > 1e-9 {
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
	if !linalg.ApproxEqual(r2, rho, tol) {
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
	mixed := linalg.Scale(0.25, linalg.Identity(4))
	out := applyDepolarizingW(nil, mixed, 0.7, 2, 0, 2)
	if !linalg.ApproxEqual(out, mixed, 1e-9) {
		t.Error("depolarising moved the maximally mixed state")
	}
	// Full two-qubit depolarising sends anything to maximally mixed.
	out = applyDepolarizingW(nil, BellProjector(PhiPlus), 1, 2, 0, 2)
	if !linalg.ApproxEqual(out, mixed, 1e-9) {
		t.Error("p=1 depolarising did not fully mix")
	}
}

func TestNoisyGates(t *testing.T) {
	// A perfect noisy gate is just the gate.
	rho := BellProjector(PhiPlus)
	if !linalg.ApproxEqual(NoisyGate2W(nil, rho, CNOT, 0, 2, 1), ApplyGate2W(nil, rho, CNOT, 0, 2), tol) {
		t.Error("NoisyGate2W with f=1 differs from perfect gate")
	}
	if !linalg.ApproxEqual(NoisyGate1W(nil, rho, H, 0, 2, 1), ApplyGate1W(nil, rho, H, 0, 2), tol) {
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
		if !linalg.IsUnitary(Rx(th), tol) {
			t.Errorf("Rx(%v) not unitary", th)
		}
	}
	// Rx(π) = −iX up to phase: conjugation equals X conjugation.
	rho := randDensity(rand.New(rand.NewSource(2)), 2)
	a := ApplyGate1W(nil, rho, Rx(math.Pi), 0, 1)
	b := ApplyGate1W(nil, rho, X, 0, 1)
	if !linalg.ApproxEqual(a, b, 1e-9) {
		t.Error("Rx(π) does not act like X")
	}
}

func TestStandardGatesUnitary(t *testing.T) {
	for name, g := range map[string]*linalg.Matrix{
		"X": X, "Y": Y, "Z": Z, "H": H, "S": gateS, "SDagger": SDagger, "T": gateT,
		"CNOT": CNOT, "CZ": gateCZ, "SWAP": SWAP,
	} {
		if !linalg.IsUnitary(g, tol) {
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

package quantum

import (
	"math"
	"math/rand"
	"testing"

	"qnp/internal/linalg"
)

// The central correctness property of entanglement tracking: for noiseless
// swaps of pure Bell states, the surviving pair is exactly the Bell state
// predicted by Combine(a, b, outcome). This pins the XOR algebra the QNP's
// TRACK messages rely on to the actual physics.
func TestSwapCombineIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for a := BellIndex(0); a < 4; a++ {
		for b := BellIndex(0); b < 4; b++ {
			seen := map[BellIndex]bool{}
			for trial := 0; trial < 64; trial++ {
				res := SwapW(nil, BellProjector(a), BellProjector(b), PerfectSwap, rng)
				want := Combine(a, b, res.Outcome)
				if f := Fidelity(res.Rho, want); math.Abs(f-1) > 1e-9 {
					t.Fatalf("swap(B%d,B%d) outcome %v: fidelity with B%v = %v",
						a, b, res.Outcome, want, f)
				}
				if got := real(linalg.Trace(res.Rho)); math.Abs(got-1) > 1e-9 {
					t.Fatalf("swap output trace = %v", got)
				}
				seen[res.Outcome] = true
			}
			// All four outcomes occur (each has probability 1/4).
			if len(seen) != 4 {
				t.Errorf("swap(B%d,B%d): only outcomes %v seen in 64 trials", a, b, seen)
			}
		}
	}
}

func TestSwapOutcomeUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := [4]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		res := SwapW(nil, BellProjector(PhiPlus), BellProjector(PhiPlus), PerfectSwap, rng)
		counts[res.Outcome]++
	}
	for i, c := range counts {
		if c < n/4-200 || c > n/4+200 {
			t.Errorf("outcome %d count %d, want ≈%d", i, c, n/4)
		}
	}
}

// Swapping two Werner states gives the standard composition
// F' = F1·F2 + (1−F1)(1−F2)/3 for noiseless operations.
func TestSwapWernerComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f1 := range []float64{1, 0.95, 0.8} {
		for _, f2 := range []float64{1, 0.9, 0.7} {
			res := SwapW(nil, WernerFor(f1, PhiPlus), WernerFor(f2, PhiPlus), PerfectSwap, rng)
			want := f1*f2 + (1-f1)*(1-f2)/3
			idx := Combine(PhiPlus, PhiPlus, res.Outcome)
			if got := Fidelity(res.Rho, idx); math.Abs(got-want) > 1e-9 {
				t.Errorf("Werner swap F1=%v F2=%v: F=%v, want %v", f1, f2, got, want)
			}
		}
	}
}

// Noisy gates and readout reduce the fidelity of the swapped pair — the
// paper's loss mechanisms P2 and P3.
func TestSwapNoiseDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// With perfect readout, gate noise alone bounds the damage: every swap
	// lands a little below 1 but nowhere near misidentification.
	cfgGate := SwapConfig{TwoQubitFidelity: 0.98, SingleQubitFidelity: 1, Readout: PerfectReadout}
	worst := 1.0
	for i := 0; i < 50; i++ {
		res := SwapW(nil, BellProjector(PhiPlus), BellProjector(PhiPlus), cfgGate, rng)
		f := Fidelity(res.Rho, Combine(PhiPlus, PhiPlus, res.Outcome))
		if f < worst {
			worst = f
		}
	}
	if worst >= 1 {
		t.Error("noisy swap never degraded fidelity")
	}
	if worst < 0.9 {
		t.Errorf("gate-noise-only swap fidelity %v implausibly low", worst)
	}
	// Adding readout noise occasionally misreports an outcome bit (declared
	// Bell state wrong → fidelity ≈ 0), so assert on the mean instead.
	cfg := SwapConfig{TwoQubitFidelity: 0.98, SingleQubitFidelity: 1, Readout: Readout{F0: 0.99, F1: 0.99}}
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		res := SwapW(nil, BellProjector(PhiPlus), BellProjector(PhiPlus), cfg, rng)
		sum += Fidelity(res.Rho, Combine(PhiPlus, PhiPlus, res.Outcome))
	}
	if avg := sum / n; avg < 0.9 || avg >= 1 {
		t.Errorf("noisy swap mean fidelity %v, want in [0.9, 1)", avg)
	}
}

// Readout errors corrupt the *announced* outcome: tracking then declares the
// wrong Bell state, which surfaces as fidelity loss — exactly why the paper
// needs fidelity test rounds rather than trusting tracking blindly.
func TestSwapReadoutErrorMisleadsTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := SwapConfig{TwoQubitFidelity: 1, SingleQubitFidelity: 1, Readout: Readout{F0: 0.5, F1: 0.5}}
	mis := 0
	const n = 200
	for i := 0; i < n; i++ {
		res := SwapW(nil, BellProjector(PhiPlus), BellProjector(PhiPlus), cfg, rng)
		idx := Combine(PhiPlus, PhiPlus, res.Outcome)
		if Fidelity(res.Rho, idx) < 0.9 {
			mis++
		}
	}
	if mis == 0 {
		t.Error("fully random readout never misled tracking")
	}
}

func TestSwapChainThreeHops(t *testing.T) {
	// Compose two swaps like a 4-node path: A-B, B-C, C-D.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		ab, bc, cd := BellProjector(PhiPlus), BellProjector(PsiPlus), BellProjector(PhiMinus)
		r1 := SwapW(nil, ab, bc, PerfectSwap, rng)
		idx1 := Combine(PhiPlus, PsiPlus, r1.Outcome)
		r2 := SwapW(nil, r1.Rho, cd, PerfectSwap, rng)
		idx2 := Combine(idx1, PhiMinus, r2.Outcome)
		if f := Fidelity(r2.Rho, idx2); math.Abs(f-1) > 1e-9 {
			t.Fatalf("three-hop chain fidelity %v with predicted %v", f, idx2)
		}
	}
}

func TestTeleportPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Teleport a batch of random pure states through each Bell resource.
	for idx := BellIndex(0); idx < 4; idx++ {
		for trial := 0; trial < 10; trial++ {
			theta, phi := rng.Float64()*math.Pi, rng.Float64()*2*math.Pi
			v := linalg.ColumnVector(
				complex(math.Cos(theta/2), 0),
				complex(math.Sin(theta/2)*math.Cos(phi), math.Sin(theta/2)*math.Sin(phi)),
			)
			data := linalg.OuterProduct(v, v)
			out := Teleport(data, BellProjector(idx), idx, PerfectSwap, rng)
			if f := real(linalg.Expectation(out, v)); math.Abs(f-1) > 1e-9 {
				t.Fatalf("teleport via B%v: output fidelity %v", idx, f)
			}
		}
	}
}

func TestTeleportNoisyPair(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := linalg.ColumnVector(complex(math.Sqrt(0.3), 0), complex(math.Sqrt(0.7), 0))
	data := linalg.OuterProduct(v, v)
	var sum float64
	const n = 100
	for i := 0; i < n; i++ {
		out := Teleport(data, WernerFor(0.8, PhiPlus), PhiPlus, PerfectSwap, rng)
		sum += real(linalg.Expectation(out, v))
	}
	avg := sum / n
	if avg > 0.95 || avg < 0.7 {
		t.Errorf("teleport through F=0.8 pair: avg output fidelity %v", avg)
	}
}

func TestDistillImprovesFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const f0 = 0.8
	var sum float64
	succ, n := 0, 400
	for i := 0; i < n; i++ {
		res := Distill(WernerFor(f0, PhiPlus), WernerFor(f0, PhiPlus), PerfectSwap, rng)
		if !res.OK {
			continue
		}
		succ++
		sum += Fidelity(res.Rho, PhiPlus)
	}
	if succ == 0 {
		t.Fatal("distillation never succeeded")
	}
	avg := sum / float64(succ)
	// DEJMPS on two F=0.8 Werner pairs yields ≈0.84.
	if avg <= f0 {
		t.Errorf("distilled fidelity %v not above input %v", avg, f0)
	}
	if avg < 0.81 || avg > 0.88 {
		t.Errorf("distilled fidelity %v outside expected DEJMPS band", avg)
	}
	// Success probability for F=0.8 inputs is ≈0.77.
	rate := float64(succ) / float64(n)
	if rate < 0.6 || rate > 0.9 {
		t.Errorf("distillation success rate %v outside expected band", rate)
	}
}

func TestDistillBelowThresholdUseless(t *testing.T) {
	// Werner pairs at F=0.5 cannot be distilled above 0.5 on average.
	rng := rand.New(rand.NewSource(9))
	var sum float64
	succ := 0
	for i := 0; i < 300; i++ {
		res := Distill(WernerFor(0.5, PhiPlus), WernerFor(0.5, PhiPlus), PerfectSwap, rng)
		if res.OK {
			succ++
			sum += Fidelity(res.Rho, PhiPlus)
		}
	}
	if succ == 0 {
		t.Fatal("no successes")
	}
	if avg := sum / float64(succ); avg > 0.55 {
		t.Errorf("F=0.5 inputs distilled to %v — should stay near 0.5", avg)
	}
}

func TestMeasureStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// |+> measured in Z: 50/50.
	plus := linalg.ColumnVector(complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0))
	rho := linalg.OuterProduct(plus, plus)
	ones := 0
	const n = 2000
	for i := 0; i < n; i++ {
		bit, post := MeasureW(nil, rho, 0, 1, PerfectReadout, rng)
		ones += bit
		// Post-state must be collapsed to the reported outcome.
		if got := real(post.At(bit, bit)); math.Abs(got-1) > 1e-9 {
			t.Fatalf("post-measurement state not collapsed: pop=%v", got)
		}
	}
	if ones < n/2-150 || ones > n/2+150 {
		t.Errorf("Z measurement of |+>: %d ones out of %d", ones, n)
	}
	// |+> measured in X: always 0.
	for i := 0; i < 50; i++ {
		bit, _ := MeasureInBasisW(nil, rho, 0, 1, XBasis, PerfectReadout, rng)
		if bit != 0 {
			t.Fatal("X measurement of |+> returned 1")
		}
	}
	// |i> (Y eigenstate) measured in Y: always 0.
	iket := linalg.ColumnVector(complex(1/math.Sqrt2, 0), complex(0, 1/math.Sqrt2))
	rhoi := linalg.OuterProduct(iket, iket)
	for i := 0; i < 50; i++ {
		bit, _ := MeasureInBasisW(nil, rhoi, 0, 1, YBasis, PerfectReadout, rng)
		if bit != 0 {
			t.Fatal("Y measurement of |i> returned 1")
		}
	}
}

func TestMeasureReadoutNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zero := linalg.ColumnVector(1, 0)
	rho := linalg.OuterProduct(zero, zero)
	flips := 0
	const n = 2000
	for i := 0; i < n; i++ {
		bit, _ := MeasureW(nil, rho, 0, 1, Readout{F0: 0.9, F1: 0.9}, rng)
		flips += bit
	}
	if flips < 120 || flips > 280 {
		t.Errorf("readout flips = %d/%d, want ≈10%%", flips, n)
	}
}

func TestBellCorrelationsOnPair(t *testing.T) {
	// Measuring both qubits of Φ+ in the same basis gives correlated bits in
	// Z and X, anticorrelated in Y.
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct {
		basis Basis
		equal bool
	}{{ZBasis, true}, {XBasis, true}, {YBasis, false}} {
		for i := 0; i < 100; i++ {
			rho := BellProjector(PhiPlus)
			b1, post := MeasureInBasisW(nil, rho, 0, 2, c.basis, PerfectReadout, rng)
			b2, _ := MeasureInBasisW(nil, post, 1, 2, c.basis, PerfectReadout, rng)
			if (b1 == b2) != c.equal {
				t.Fatalf("basis %v: outcomes %d,%d (want equal=%v)", c.basis, b1, b2, c.equal)
			}
		}
	}
}

func TestBasisString(t *testing.T) {
	if ZBasis.String() != "Z" || XBasis.String() != "X" || YBasis.String() != "Y" {
		t.Error("Basis.String wrong")
	}
}

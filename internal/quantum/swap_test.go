package quantum

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"qnp/internal/linalg"
	"qnp/internal/linalg/linalgtest"
)

// PerfectSwap has no noise anywhere.
var PerfectSwap = SwapConfig{TwoQubitFidelity: 1, SingleQubitFidelity: 1, Readout: PerfectReadout}

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
				if got := real(linalgtest.Trace(res.Rho)); math.Abs(got-1) > 1e-9 {
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

// dims/keep vectors for refSwapW's four-qubit partial trace.
var (
	dims4qubit = []int{2, 2, 2, 2}
	keepOuter  = []bool{true, false, false, true}
)

// refSwapW is the staged entanglement swap that SwapW must equal bit for
// bit: every stage of the 16×16 joint state in full, through the
// workspace-threaded entry points.
func refSwapW(ws *linalg.Workspace, rhoAB, rhoBC *linalg.Matrix, cfg SwapConfig, rng *rand.Rand) SwapResult {
	if rhoAB.Rows != 4 || rhoBC.Rows != 4 {
		panic("quantum: Swap needs 4×4 pair states")
	}
	// Joint order (A, b1, b2, C): the two node-local qubits are adjacent.
	joint := ws.GetRaw(16, 16)
	linalg.KronInto(joint, rhoAB, rhoBC)
	next := NoisyGate2W(ws, joint, CNOT, 1, 4, cfg.TwoQubitFidelity)
	ws.Put(joint)
	joint = next
	next = NoisyGate1W(ws, joint, H, 1, 4, cfg.SingleQubitFidelity)
	ws.Put(joint)
	joint = next
	// After the basis change: b1 carries the phase bit, b2 the flip bit.
	zbit, next := MeasureW(ws, joint, 1, 4, cfg.Readout, rng)
	ws.Put(joint)
	joint = next
	xbit, next := MeasureW(ws, joint, 2, 4, cfg.Readout, rng)
	ws.Put(joint)
	joint = next
	// Remove the measured qubits; the survivors are (A, C).
	rhoAC := ws.GetRaw(4, 4)
	linalg.PartialTraceInto(rhoAC, joint, dims4qubit, keepOuter)
	ws.Put(joint)
	return SwapResult{
		Rho:     rhoAC,
		Outcome: BellIndex(uint8(xbit) | uint8(zbit)<<1),
	}
}

// checkSwapMatchesRef runs SwapW and refSwapW from the same seed and
// requires every Rho component, the outcome and the next RNG draw to agree
// bit for bit.
func checkSwapMatchesRef(t *testing.T, name string, rhoAB, rhoBC *linalg.Matrix, cfg SwapConfig, seed int64) {
	t.Helper()
	rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got := SwapW(nil, rhoAB, rhoBC, cfg, rngGot)
	want := refSwapW(nil, rhoAB, rhoBC, cfg, rngWant)
	if got.Outcome != want.Outcome {
		t.Fatalf("%s: outcome %v, reference %v", name, got.Outcome, want.Outcome)
	}
	if !sameBits(got.Rho, want.Rho) {
		t.Fatalf("%s: Rho differs from the reference bit for bit:\n%v\nreference:\n%v", name, got.Rho, want.Rho)
	}
	if g, w := rngGot.Int63(), rngWant.Int63(); g != w {
		t.Fatalf("%s: RNG streams diverged", name)
	}
}

// swapRefConfigs covers every branch of SwapConfig: each gate fidelity at
// 1, below 1 and at 0, with perfect and noisy readout.
func swapRefConfigs() []SwapConfig {
	var cfgs []SwapConfig
	for _, f2 := range []float64{1, 0.97, 0} {
		for _, f1 := range []float64{1, 0.99, 0} {
			for _, ro := range []Readout{PerfectReadout, {F0: 0.95, F1: 0.9}} {
				cfgs = append(cfgs, SwapConfig{TwoQubitFidelity: f2, SingleQubitFidelity: f1, Readout: ro})
			}
		}
	}
	return cfgs
}

// TestSwapWMatchesStagedReference pins SwapW to the staged pipeline over
// random inputs with signed zeros, every config branch and the degenerate
// inputs whose outcome probabilities are ½ and 1.
func TestSwapWMatchesStagedReference(t *testing.T) {
	cfgs := swapRefConfigs()
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 2400; n++ {
		a, b := randomMatrix(rng, 2), randomMatrix(rng, 2)
		checkSwapMatchesRef(t, "random", a, b, cfgs[n%len(cfgs)], int64(n))
	}
	zero := linalg.ColumnVector(1, 0, 0, 0)
	ground := linalg.OuterProduct(zero, zero)
	for _, cfg := range cfgs {
		for i := BellIndex(0); i < 4; i++ {
			for j := BellIndex(0); j < 4; j++ {
				for seed := int64(0); seed < 4; seed++ {
					checkSwapMatchesRef(t, "Bell", BellProjector(i), BellProjector(j), cfg, seed)
				}
			}
		}
		for seed := int64(0); seed < 4; seed++ {
			checkSwapMatchesRef(t, "ground", ground, ground, cfg, seed)
			checkSwapMatchesRef(t, "Werner", WernerFor(0.9, PhiPlus), WernerFor(0.8, PsiMinus), cfg, seed)
		}
	}
}

// TestPreparedSwapMatchesSwapW pins PreparedSwap.SwapW to SwapW, which
// builds the gate noise factors on every call: one prepared configuration
// serves a run of swaps, over every config branch, random inputs with
// signed zeros and Bell inputs, with the same outcomes, Rho bits and RNG
// position.
func TestPreparedSwapMatchesSwapW(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i, cfg := range swapRefConfigs() {
		ps := PrepareSwap(cfg)
		rngGot, rngWant := rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
		for n := 0; n < 60; n++ {
			a, b := randomMatrix(rng, 2), randomMatrix(rng, 2)
			if n%3 == 0 {
				a, b = BellProjector(BellIndex(n%4)), WernerFor(0.9, BellIndex(n/4%4))
			}
			got := ps.SwapW(nil, a, b, rngGot)
			want := SwapW(nil, a, b, cfg, rngWant)
			if got.Outcome != want.Outcome || !sameBits(got.Rho, want.Rho) {
				t.Fatalf("%+v swap %d: prepared swap gives outcome %v, per-call factors %v; Rho equal bit for bit: %v",
					cfg, n, got.Outcome, want.Outcome, sameBits(got.Rho, want.Rho))
			}
		}
		if rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("%+v: RNG streams diverged", cfg)
		}
	}
}

// FuzzSwapWMatchesReference requires SwapW to equal refSwapW bit for bit
// on inputs decoded by decodeSwapInput.
func FuzzSwapWMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rhoAB, rhoBC, cfg, seed := decodeSwapInput(data)
		checkSwapMatchesRef(t, "fuzz", rhoAB, rhoBC, cfg, seed)
	})
}

// decodeSwapInput reads two 4×4 inputs as 64 big-endian float64
// components (real, imaginary; row-major; rhoAB first), then the two gate
// fidelities and the two readout fidelities as big-endian uint16s scaled
// to [0, 1] (65000 and above read as 1), then an int64 seed. Missing bytes
// read as 0. Components are clamped to [−1, 1], keeping the sign of zero,
// and NaN and ±Inf read as 0: with an infinite entry the staged pipeline's
// unit CNOT products form 0·Inf = NaN where the fused pass forms none.
func decodeSwapInput(data []byte) (rhoAB, rhoBC *linalg.Matrix, cfg SwapConfig, seed int64) {
	take := func(n int) []byte {
		var w [8]byte
		data = data[copy(w[:n], data):]
		return w[:n]
	}
	comp := func() float64 {
		v := math.Float64frombits(binary.BigEndian.Uint64(take(8)))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Max(-1, math.Min(1, v))
	}
	unit := func() float64 {
		return math.Min(1, float64(binary.BigEndian.Uint16(take(2)))/65000)
	}
	var m [2]*linalg.Matrix
	for k := range m {
		m[k] = linalg.New(4, 4)
		for e := range m[k].Data {
			re := comp()
			m[k].Data[e] = complex(re, comp())
		}
	}
	cfg = SwapConfig{TwoQubitFidelity: unit(), SingleQubitFidelity: unit(),
		Readout: Readout{F0: unit(), F1: unit()}}
	seed = int64(binary.BigEndian.Uint64(take(8)))
	return m[0], m[1], cfg, seed
}

// preparedSwapW gives PreparedSwap.SwapW SwapW's signature; the
// configuration argument is the prepared one.
type preparedSwapW struct{ ps *PreparedSwap }

func (p preparedSwapW) swapW(ws *linalg.Workspace, a, b *linalg.Matrix, _ SwapConfig, rng *rand.Rand) SwapResult {
	return p.ps.SwapW(ws, a, b, rng)
}

// BenchmarkSwapW times the swap kernel, with the gate noise factors built
// per call and prepared once, against the staged reference on a noisy
// configuration, all on a warm workspace.
func BenchmarkSwapW(b *testing.B) {
	cfg := SwapConfig{TwoQubitFidelity: 0.98, SingleQubitFidelity: 0.99, Readout: Readout{F0: 0.95, F1: 0.995}}
	a, c := WernerFor(0.95, PhiPlus), WernerFor(0.9, PsiMinus)
	prepared := preparedSwapW{PrepareSwap(cfg)}
	for _, bc := range []struct {
		name string
		swap func(*linalg.Workspace, *linalg.Matrix, *linalg.Matrix, SwapConfig, *rand.Rand) SwapResult
	}{{"kernel", SwapW}, {"prepared", prepared.swapW}, {"reference", refSwapW}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ws := linalg.NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ws.Put(bc.swap(ws, a, c, cfg, rng).Rho)
			}
		})
	}
}

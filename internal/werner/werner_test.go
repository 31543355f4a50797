package werner

import (
	"math"
	"math/rand"
	"testing"

	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/linalg/linalgtest"
	"qnp/internal/quantum"
)

// The closed forms are exact on Werner inputs; everything here pins them
// against the exact density-matrix engine to this tolerance.
const tol = 1e-12

var (
	wGrid   = []float64{-0.3, 0, 0.2, 0.6, 0.9, 1}
	allBell = []quantum.BellIndex{quantum.PhiPlus, quantum.PsiPlus, quantum.PhiMinus, quantum.PsiMinus}
)

// wernerRho materialises the Werner state w·|B><B| + (1−w)·I/4.
func wernerRho(w float64, idx quantum.BellIndex) *linalg.Matrix {
	return linalgtest.Add(linalgtest.Scale(complex(w, 0), quantum.BellProjector(idx)), linalgtest.Scale(complex((1-w)/4, 0), linalg.Identity(4)))
}

func TestFidelityConversions(t *testing.T) {
	for _, w := range wGrid {
		if got := FromFidelity(Fidelity(w)); math.Abs(got-w) > tol {
			t.Errorf("FromFidelity(Fidelity(%v)) = %v", w, got)
		}
		for _, idx := range allBell {
			rho := wernerRho(w, idx)
			if got := quantum.Fidelity(rho, idx); math.Abs(got-Fidelity(w)) > tol {
				t.Errorf("w=%v idx=%v: exact fidelity %v, scalar %v", w, idx, got, Fidelity(w))
			}
			if got := quantum.Fidelity(rho, idx^1); math.Abs(got-CrossFidelity(w)) > tol {
				t.Errorf("w=%v idx=%v: exact cross fidelity %v, scalar %v", w, idx, got, CrossFidelity(w))
			}
		}
	}
}

// TestDecohereMatchesExact pins the joint two-sided decoherence closed form
// against sequential per-side DecohereW — the exact composition Pair.AdvanceTo
// performs — over both Bell supports, asymmetric lifetimes and dead sides.
func TestDecohereMatchesExact(t *testing.T) {
	ws := linalg.NewWorkspace()
	lifetimes := []struct{ t1, t2 float64 }{
		{3600, 60}, // simulation electron
		{360, 60},  // near-term carbon
		{0.5, 0.1}, // fast decay: large γ and pflip
		{0, 2},     // no amplitude damping
		{1, 0},     // no dephasing
	}
	for _, w := range wGrid {
		for _, idx := range allBell {
			for _, dt := range []float64{1e-4, 0.01, 0.5, 5} {
				for _, l0 := range lifetimes {
					for _, l1 := range lifetimes {
						for _, live := range [][2]bool{{true, true}, {true, false}, {false, true}} {
							rho := wernerRho(w, idx)
							var g, p [2]float64
							sides := [2]struct{ t1, t2 float64 }{l0, l1}
							for s := 0; s < 2; s++ {
								if !live[s] {
									continue
								}
								g[s], p[s] = quantum.DecoherenceProbabilities(dt, sides[s].t1, sides[s].t2)
								rho = quantum.DecohereW(ws, rho, s, 2, dt, sides[s].t1, sides[s].t2)
							}
							exactF := quantum.Fidelity(rho, idx)
							got := Fidelity(Decohere(w, idx.XBit() == 0, g[0], p[0], g[1], p[1]))
							if math.Abs(got-exactF) > tol {
								t.Fatalf("w=%v idx=%v dt=%v l0=%+v l1=%+v live=%v: exact %v scalar %v (Δ=%.3g)",
									w, idx, dt, l0, l1, live, exactF, got, got-exactF)
							}
						}
					}
				}
			}
		}
	}
}

func TestDepolarize1MatchesExact(t *testing.T) {
	ws := linalg.NewWorkspace()
	for _, w := range wGrid {
		for _, idx := range allBell {
			for _, p := range []float64{0, 0.002, 0.05, 0.3, 1} {
				for side := 0; side < 2; side++ {
					rho := quantum.ApplyDepolarizing1W(ws, wernerRho(w, idx), p, side, 2)
					exactF := quantum.Fidelity(rho, idx)
					if got := Fidelity(Depolarize1(w, p)); math.Abs(got-exactF) > tol {
						t.Fatalf("w=%v idx=%v p=%v side=%d: exact %v scalar %v", w, idx, p, side, got, exactF)
					}
				}
			}
		}
	}
}

func TestPhaseFlipMatchesExact(t *testing.T) {
	for _, w := range wGrid {
		for _, idx := range allBell {
			for _, p := range []float64{0, 2.5e-5, 0.01, 0.2, 0.5} {
				for side := 0; side < 2; side++ {
					rho := wernerRho(w, idx)
					var ch quantum.PairChannels
					ch.PhaseFlip(side, p)
					ch.Apply(rho)
					exactF := quantum.Fidelity(rho, idx)
					if got := Fidelity(PhaseFlip(w, p)); math.Abs(got-exactF) > tol {
						t.Fatalf("w=%v idx=%v p=%v side=%d: exact %v scalar %v", w, idx, p, side, got, exactF)
					}
				}
			}
		}
	}
}

// TestSwapMatchesExact drives quantum.SwapW and the scalar Swap from
// identically seeded RNGs on Werner inputs: the reported outcome must be
// identical (same draws, same thresholds), the merged fidelity to the
// declared Bell index equal to float precision, and both engines must leave
// their RNG at the same position.
func TestSwapMatchesExact(t *testing.T) {
	ws := linalg.NewWorkspace()
	cfgs := []quantum.SwapConfig{
		{TwoQubitFidelity: 1, SingleQubitFidelity: 1, Readout: quantum.PerfectReadout},
		{TwoQubitFidelity: 0.998, SingleQubitFidelity: 1.0, Readout: quantum.Readout{F0: 0.998, F1: 0.998}},
		{TwoQubitFidelity: 0.95, SingleQubitFidelity: 0.97, Readout: quantum.Readout{F0: 0.9, F1: 0.95}},
	}
	for _, cfg := range cfgs {
		for _, w1 := range []float64{0.2, 0.6, 0.9, 1} {
			for _, w2 := range []float64{-0.2, 0.5, 0.95} {
				for _, idx1 := range allBell {
					for _, idx2 := range []quantum.BellIndex{quantum.PhiPlus, quantum.PsiMinus} {
						for seed := int64(1); seed <= 8; seed++ {
							rngE := rand.New(rand.NewSource(seed))
							rngS := rand.New(rand.NewSource(seed))
							res := quantum.SwapW(ws, wernerRho(w1, idx1), wernerRho(w2, idx2), cfg, rngE)
							sres := Swap(w1, w2, cfg, rngS)
							if res.Outcome != sres.Outcome {
								t.Fatalf("cfg=%+v w=(%v,%v) seed=%d: outcome exact %v scalar %v",
									cfg, w1, w2, seed, res.Outcome, sres.Outcome)
							}
							declared := quantum.Combine(idx1, idx2, res.Outcome)
							exactF := quantum.Fidelity(res.Rho, declared)
							if got := Fidelity(sres.W); math.Abs(got-exactF) > tol {
								t.Fatalf("cfg=%+v w=(%v,%v) idx=(%v,%v) seed=%d: fidelity exact %v scalar %v (Δ=%.3g)",
									cfg, w1, w2, idx1, idx2, seed, exactF, got, got-exactF)
							}
							if a, b := rngE.Float64(), rngS.Float64(); a != b {
								t.Fatalf("RNG streams diverged after swap: %v vs %v", a, b)
							}
							ws.Put(res.Rho)
						}
					}
				}
			}
		}
	}
}

// TestMeasureMatchesExact checks destructive measurement: identical reported
// bits from identically seeded RNGs in all three bases (Werner marginals are
// I/2 in every basis), and identical RNG positions afterwards.
func TestMeasureMatchesExact(t *testing.T) {
	ws := linalg.NewWorkspace()
	readouts := []quantum.Readout{quantum.PerfectReadout, {F0: 0.998, F1: 0.998}, {F0: 0.9, F1: 0.95}}
	for _, ro := range readouts {
		for _, basis := range []quantum.Basis{quantum.ZBasis, quantum.XBasis, quantum.YBasis} {
			for _, w := range []float64{0, 0.6, 1} {
				for side := 0; side < 2; side++ {
					for seed := int64(1); seed <= 16; seed++ {
						rngE := rand.New(rand.NewSource(seed))
						rngS := rand.New(rand.NewSource(seed))
						bitE, post := quantum.MeasureInBasisW(ws, wernerRho(w, quantum.PsiPlus), side, 2, basis, ro, rngE)
						if bitS := Measure(ro, rngS); bitE != bitS {
							t.Fatalf("ro=%+v basis=%v w=%v side=%d seed=%d: bit exact %d scalar %d",
								ro, basis, w, side, seed, bitE, bitS)
						}
						if a, b := rngE.Float64(), rngS.Float64(); a != b {
							t.Fatalf("RNG streams diverged after measure: %v vs %v", a, b)
						}
						ws.Put(post)
					}
				}
			}
		}
	}
}

// TestGenerateMatchesExact pins heralded generation: same Bell index from
// the same draws, and the scalar Werner parameter derived from the model
// fidelity reproduces the exact produced state's fidelity to its heralded
// index. This covers the dark-count branch via the tiny-α settings, where
// WDark dominates.
func TestGenerateMatchesExact(t *testing.T) {
	ws := linalg.NewWorkspace()
	links := []hardware.LinkConfig{hardware.LabLink(), hardware.TelecomLink(25000)}
	params := []hardware.Params{hardware.Simulation(), hardware.NearTerm()}
	for _, l := range links {
		for _, p := range params {
			for _, alpha := range []float64{1e-6, 1e-4, 0.01, 0.1, 0.3} {
				model := l.Model(p, alpha)
				for seed := int64(1); seed <= 8; seed++ {
					rngE := rand.New(rand.NewSource(seed))
					rngS := rand.New(rand.NewSource(seed))
					rhoE, idxE := l.GenerateW(ws, p, alpha, rngE)
					wS, idxS := Generate(model.Fidelity(), rngS)
					if idxE != idxS {
						t.Fatalf("alpha=%v seed=%d: herald exact %v scalar %v", alpha, seed, idxE, idxS)
					}
					exactF := quantum.Fidelity(rhoE, idxE)
					if got := Fidelity(wS); math.Abs(got-exactF) > tol {
						t.Fatalf("alpha=%v wdark=%v: fidelity exact %v scalar %v (Δ=%.3g)",
							alpha, model.WDark, exactF, got, got-exactF)
					}
					if a, b := rngE.Float64(), rngS.Float64(); a != b {
						t.Fatalf("RNG streams diverged after generate: %v vs %v", a, b)
					}
					ws.Put(rhoE)
				}
			}
		}
	}
}

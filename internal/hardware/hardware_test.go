package hardware

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// Table 1 parameters must be wired through exactly as published.
func TestTable1Parameters(t *testing.T) {
	s := Simulation()
	if s.Gates.SingleQubitFidelity != 1.0 || s.Gates.SingleQubitTime != 5*sim.Nanosecond {
		t.Error("simulation single-qubit gate params wrong")
	}
	if s.Gates.TwoQubitFidelity != 0.998 || s.Gates.TwoQubitTime != 500*sim.Microsecond {
		t.Error("simulation two-qubit gate params wrong")
	}
	if s.Gates.ElectronInitFidelity != 0.99 || s.Gates.ElectronInitTime != 2*sim.Microsecond {
		t.Error("simulation electron init params wrong")
	}
	if s.Gates.Readout.F0 != 0.998 || s.Gates.Readout.F1 != 0.998 {
		t.Error("simulation readout params wrong")
	}
	n := NearTerm()
	if n.Gates.TwoQubitFidelity != 0.992 {
		t.Error("near-term two-qubit gate fidelity wrong")
	}
	if n.Gates.CarbonRotZTime != 20*sim.Microsecond || n.Gates.CarbonRotZFidelity != 1.0 {
		t.Error("near-term carbon RotZ params wrong")
	}
	if n.Gates.CarbonInitFidelity != 0.95 || n.Gates.CarbonInitTime != 300*sim.Microsecond {
		t.Error("near-term carbon init params wrong")
	}
	if n.Gates.Readout.F0 != 0.95 || n.Gates.Readout.F1 != 0.995 {
		t.Error("near-term readout params wrong")
	}
}

// Table 2 parameters likewise.
func TestTable2Parameters(t *testing.T) {
	s := Simulation()
	if s.Electron.T2 != 60 || s.Electron.T1 != 3600 {
		t.Error("simulation electron lifetimes wrong")
	}
	if s.Photon.TauWindow != 25*sim.Nanosecond || s.Photon.TauEmission != 6*sim.Nanosecond {
		t.Error("simulation photon timings wrong")
	}
	if math.Abs(s.Photon.DeltaPhi-2*math.Pi/180) > 1e-12 {
		t.Error("simulation Δφ wrong")
	}
	if s.Photon.PZeroPhonon != 0.75 || s.Photon.CollectionEff != 20e-3 ||
		s.Photon.PDetection != 0.8 || s.Photon.Visibility != 1.0 ||
		s.Photon.DarkCountRate != 20 || s.Photon.PDoubleExcitation != 0 {
		t.Error("simulation photon params wrong")
	}
	n := NearTerm()
	if n.Electron.T2 != 1.46 || n.Carbon.T2 != 60 || n.Carbon.T1 != 360 {
		t.Error("near-term lifetimes wrong")
	}
	if n.Photon.PZeroPhonon != 0.46 || n.Photon.CollectionEff != 4.38e-3 ||
		n.Photon.Visibility != 0.9 || n.Photon.PDoubleExcitation != 0.04 {
		t.Error("near-term photon params wrong")
	}
	if !n.HasCarbon || s.HasCarbon {
		t.Error("HasCarbon flags wrong")
	}
}

func TestSwapDurations(t *testing.T) {
	s := Simulation()
	want := 500*sim.Microsecond + 5*sim.Nanosecond + 2*sim.Duration(3700)
	if got := s.SwapDuration(); got != want {
		t.Errorf("SwapDuration = %v, want %v", got, want)
	}
	n := NearTerm()
	if got := n.MoveDuration(); got != 300*sim.Microsecond+500*sim.Microsecond {
		t.Errorf("MoveDuration = %v", got)
	}
	cfg := s.SwapConfig()
	if cfg.TwoQubitFidelity != 0.998 || cfg.Readout.F0 != 0.998 {
		t.Error("SwapConfig extraction wrong")
	}
}

func TestLinkGeometry(t *testing.T) {
	lab := LabLink()
	if lab.LengthM != 2 || lab.LossDBPerKm != 5 {
		t.Error("lab link config wrong")
	}
	// 2 m at 2e8 m/s = 10 ns one-way.
	if got := lab.PropagationDelay(); got != 10*sim.Nanosecond {
		t.Errorf("lab propagation delay = %v", got)
	}
	tele := TelecomLink(25000)
	if got := tele.PropagationDelay(); got != 125*sim.Microsecond {
		t.Errorf("telecom propagation delay = %v", got)
	}
	// Transmission to midpoint: 12.5 km at 0.5 dB/km = 6.25 dB.
	want := math.Pow(10, -0.625)
	if got := tele.Transmission(); math.Abs(got-want) > 1e-12 {
		t.Errorf("telecom transmission = %v, want %v", got, want)
	}
	if lab.Transmission() < 0.98 {
		t.Errorf("lab transmission = %v, want ≈1", lab.Transmission())
	}
}

// Fig. 5 calibration: a fidelity-0.95 pair over 2 m of fibre takes ≈10 ms on
// average, and ≈95% of pairs arrive within 30 ms (exponential tail: the 95th
// percentile of a geometric distribution sits at ≈3× the mean).
func TestFig5Calibration(t *testing.T) {
	p := Simulation()
	l := LabLink()
	mean, ok := l.ExpectedPairTime(p, 0.95)
	if !ok {
		t.Fatal("link cannot produce F=0.95")
	}
	if mean < 5*sim.Millisecond || mean > 20*sim.Millisecond {
		t.Errorf("expected pair time at F=0.95 = %v, want ≈10ms", mean)
	}
	t95 := mean.Scale(3)
	if t95 > 60*sim.Millisecond {
		t.Errorf("95th percentile ≈ %v, want tens of ms", t95)
	}
}

func TestFidelityRateTradeoff(t *testing.T) {
	p := Simulation()
	l := LabLink()
	// Higher fidelity must require smaller α and therefore lower rate.
	a80, ok1 := l.AlphaForFidelity(p, 0.80)
	a95, ok2 := l.AlphaForFidelity(p, 0.95)
	if !ok1 || !ok2 {
		t.Fatal("AlphaForFidelity failed")
	}
	if a95 >= a80 {
		t.Errorf("α(F=0.95)=%v not below α(F=0.80)=%v", a95, a80)
	}
	t80, _ := l.ExpectedPairTime(p, 0.80)
	t95, _ := l.ExpectedPairTime(p, 0.95)
	if t95 <= t80 {
		t.Errorf("F=0.95 pairs (%v) not slower than F=0.80 pairs (%v)", t95, t80)
	}
}

func TestAlphaForFidelityInversion(t *testing.T) {
	p := Simulation()
	l := LabLink()
	for _, f := range []float64{0.6, 0.8, 0.9, 0.95, 0.98} {
		a, ok := l.AlphaForFidelity(p, f)
		if !ok {
			t.Fatalf("cannot reach F=%v", f)
		}
		got := l.Model(p, a).Fidelity()
		if math.Abs(got-f) > 1e-6 && got < f {
			t.Errorf("α inversion for F=%v gives fidelity %v", f, got)
		}
	}
	// Unreachable fidelity is reported as such.
	if _, ok := l.AlphaForFidelity(p, 0.99999); ok {
		t.Error("impossible fidelity accepted")
	}
	// The achievable ceiling sits just below 0.99: the dark-count floor
	// (≈1e-6 per window) and the emission trade-off cap it at ≈0.987.
	_, maxF := NewLinkCurve(l, p).Peak()
	if maxF < 0.97 || maxF >= 1 {
		t.Errorf("max fidelity = %v, want ≈0.987", maxF)
	}
}

// The produced state's exact fidelity matches the closed-form model, and
// a workspace whose pooled buffers hold NaNs produces the same bits as
// plain allocation.
func TestPairStateMatchesModel(t *testing.T) {
	p := Simulation()
	l := LabLink()
	for _, alpha := range []float64{0.01, 0.05, 0.2, 0.4} {
		m := l.Model(p, alpha)
		for _, idx := range []quantum.BellIndex{quantum.PsiPlus, quantum.PsiMinus} {
			rho := m.StateW(nil, idx)
			if got := m.StateW(poisonedWS(), idx); !sameBits(got, rho) {
				t.Fatalf("α=%v idx=%v: StateW on a poisoned workspace differs from nil", alpha, idx)
			}
			if got := real(linalg.Trace(rho)); math.Abs(got-1) > 1e-9 {
				t.Fatalf("trace = %v", got)
			}
			if !linalg.IsHermitian(rho, 1e-9) {
				t.Fatal("state not hermitian")
			}
			if got := quantum.Fidelity(rho, idx); math.Abs(got-m.Fidelity()) > 1e-9 {
				t.Errorf("α=%v idx=%v: state fidelity %v, model %v", alpha, idx, got, m.Fidelity())
			}
			for b := quantum.BellIndex(0); b < 4; b++ {
				if b != idx && quantum.Fidelity(rho, b) >= quantum.Fidelity(rho, idx) {
					t.Errorf("α=%v: Bell state %v overlaps at least as much as the heralded %v", alpha, b, idx)
				}
			}
		}
	}
}

// poisonedWS returns a warm workspace whose pooled 4×4 buffers are
// NaN-filled: a GetRaw destination that StateW does not fully overwrite
// leaks NaNs into its result.
func poisonedWS() *linalg.Workspace {
	ws := linalg.NewWorkspace()
	var held []*linalg.Matrix
	for i := 0; i < 8; i++ {
		m := ws.Get(4, 4)
		for j := range m.Data {
			m.Data[j] = complex(math.NaN(), math.NaN())
		}
		held = append(held, m)
	}
	for _, m := range held {
		ws.Put(m)
	}
	return ws
}

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b *linalg.Matrix) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i, av := range a.Data {
		bv := b.Data[i]
		if math.Float64bits(real(av)) != math.Float64bits(real(bv)) ||
			math.Float64bits(imag(av)) != math.Float64bits(imag(bv)) {
			return false
		}
	}
	return true
}

// TestPairModelFidelityMatchesStateW pins the consistency of the two
// independently computed sides of the pair model — the closed-form
// PairModel.Fidelity() and the Bell-diagonal element ⟨B_idx|ρ|B_idx⟩ of
// the materialised StateW output — across the parameter grid, including
// operating points where the dark-count herald fraction is significant
// (long telecom links at small α push WDark well above zero). The Werner
// engine seeds its scalar from Fidelity() while the exact engine carries
// StateW, so a divergence here would silently skew every cross-engine
// comparison.
func TestPairModelFidelityMatchesStateW(t *testing.T) {
	ws := linalg.NewWorkspace()
	sawDark := false
	for _, hw := range []struct {
		name   string
		params Params
	}{{"simulation", Simulation()}, {"nearterm", NearTerm()}} {
		for _, lc := range []struct {
			name string
			link LinkConfig
		}{{"lab", LabLink()}, {"telecom-25km", TelecomLink(25000)}, {"telecom-50km", TelecomLink(50000)}} {
			for _, alpha := range []float64{1e-6, 1e-4, 0.01, 0.05, 0.2, 0.4} {
				m := lc.link.Model(hw.params, alpha)
				if m.SuccessProb <= 0 {
					continue
				}
				if m.WDark > 0.01 {
					sawDark = true
				}
				for _, idx := range []quantum.BellIndex{quantum.PsiPlus, quantum.PsiMinus} {
					rho := m.StateW(ws, idx)
					got := quantum.Fidelity(rho, idx)
					if math.Abs(got-m.Fidelity()) > 1e-12 {
						t.Errorf("%s/%s α=%v idx=%v (wDark=%.3g): ⟨B|ρ|B⟩ = %v, Fidelity() = %v",
							hw.name, lc.name, alpha, idx, m.WDark, got, m.Fidelity())
					}
					ws.Put(rho)
				}
			}
		}
	}
	if !sawDark {
		t.Fatal("parameter grid never reached a significant dark-count fraction; widen it")
	}
}

func TestGenerateHeraldsBothSigns(t *testing.T) {
	p := Simulation()
	l := LabLink()
	rng := rand.New(rand.NewSource(1))
	counts := map[quantum.BellIndex]int{}
	for i := 0; i < 200; i++ {
		rho, idx := l.GenerateW(nil, p, 0.05, rng)
		if idx != quantum.PsiPlus && idx != quantum.PsiMinus {
			t.Fatalf("heralded index %v", idx)
		}
		if quantum.Fidelity(rho, idx) < 0.9 {
			t.Fatal("generated state does not match herald")
		}
		counts[idx]++
	}
	if counts[quantum.PsiPlus] < 50 || counts[quantum.PsiMinus] < 50 {
		t.Errorf("herald sign counts unbalanced: %v", counts)
	}
}

func TestSampleAttemptsGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 0.01
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		k := SampleAttempts(p, rng)
		if k < 1 {
			t.Fatal("attempts < 1")
		}
		sum += float64(k)
	}
	mean := sum / n
	if mean < 90 || mean > 110 {
		t.Errorf("geometric mean = %v, want ≈100", mean)
	}
	if SampleAttempts(1, rng) != 1 {
		t.Error("p=1 must succeed on first attempt")
	}
	if SampleAttempts(0, rng) < math.MaxInt32 {
		t.Error("p=0 must never succeed")
	}
}

// Near-term hardware produces lower fidelities and lower rates — the regime
// of Fig. 11.
func TestNearTermRegime(t *testing.T) {
	p := NearTerm()
	l := TelecomLink(25000)
	_, maxF := NewLinkCurve(l, p).Peak()
	if maxF > 0.95 {
		t.Errorf("near-term max fidelity %v implausibly high", maxF)
	}
	if maxF < 0.7 {
		t.Errorf("near-term max fidelity %v too low to be useful", maxF)
	}
	mean, ok := l.ExpectedPairTime(p, 0.75)
	if !ok {
		t.Fatal("near-term link cannot reach F=0.75")
	}
	if mean < 100*sim.Millisecond || mean > 10*sim.Second {
		t.Errorf("near-term pair time at F=0.75 = %v, want ≈1s scale", mean)
	}
}

// Property: fidelity decreases monotonically with α on the operating branch,
// and success probability increases.
func TestQuickMonotoneTradeoff(t *testing.T) {
	p := Simulation()
	l := LabLink()
	peakA, _ := NewLinkCurve(l, p).Peak()
	f := func(raw1, raw2 uint16) bool {
		a1 := peakA + (0.5-peakA)*float64(raw1)/65535
		a2 := peakA + (0.5-peakA)*float64(raw2)/65535
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		m1, m2 := l.Model(p, a1), l.Model(p, a2)
		return m1.Fidelity() >= m2.Fidelity()-1e-12 && m1.SuccessProb <= m2.SuccessProb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

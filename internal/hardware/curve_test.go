package hardware

import (
	"math"
	"testing"

	"qnp/internal/race"
	"qnp/internal/sim"
)

// The reference implementations below are the per-call link model as it
// stood before LinkCurve: every evaluation recomputes η, the dark-count
// probability and the coherence, and every inversion rescans the peak.
// LinkCurve must reproduce them bit for bit.

func refModel(l LinkConfig, p Params, alpha float64) PairModel {
	pm := PairModel{Alpha: alpha, V: p.Photon.coherence()}
	real2 := 2 * alpha * l.Eta(p)
	dark := l.darkProb(p)
	pm.SuccessProb = real2 + dark
	if pm.SuccessProb > 0 {
		pm.WDark = dark / pm.SuccessProb
	}
	pm.G = 1 - alpha - p.Photon.PDoubleExcitation
	if pm.G < 0 {
		pm.G = 0
	}
	return pm
}

func refMaxFidelity(l LinkConfig, p Params) (alpha, fid float64) {
	best, bestA := -1.0, 0.0
	for i := 0; i <= 400; i++ {
		a := math.Exp(math.Log(1e-6) + (math.Log(0.5)-math.Log(1e-6))*float64(i)/400)
		if f := refModel(l, p, a).Fidelity(); f > best {
			best, bestA = f, a
		}
	}
	return bestA, best
}

func refAlphaForFidelity(l LinkConfig, p Params, f float64) (alpha float64, ok bool) {
	peakA, peakF := refMaxFidelity(l, p)
	if f > peakF {
		return 0, false
	}
	lo, hi := peakA, 0.5
	if refModel(l, p, hi).Fidelity() > f {
		return hi, true
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if refModel(l, p, mid).Fidelity() >= f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

func refExpectedPairTime(l LinkConfig, p Params, f float64) (sim.Duration, bool) {
	a, ok := refAlphaForFidelity(l, p, f)
	if !ok {
		return 0, false
	}
	prob := 2*a*l.Eta(p) + l.darkProb(p)
	return l.CycleTime(p).Scale(1 / prob), true
}

func sameModel(a, b PairModel) bool {
	bits := math.Float64bits
	return bits(a.Alpha) == bits(b.Alpha) && bits(a.V) == bits(b.V) && bits(a.G) == bits(b.G) &&
		bits(a.WDark) == bits(b.WDark) && bits(a.SuccessProb) == bits(b.SuccessProb)
}

// TestLinkCurveMatchesReference pins LinkCurve and the LinkConfig wrappers
// bit-identical to the per-call reference on both platforms and both link
// kinds, over a fidelity grid that includes targets above the peak (ok =
// false) and below Model(0.5) (the fastest-setting early return).
func TestLinkCurveMatchesReference(t *testing.T) {
	bits := math.Float64bits
	for _, p := range []Params{Simulation(), NearTerm()} {
		for _, l := range []LinkConfig{LabLink(), TelecomLink(25e3)} {
			c := NewLinkCurve(l, p)
			wantA, wantF := refMaxFidelity(l, p)
			if a, f := c.Peak(); bits(a) != bits(wantA) || bits(f) != bits(wantF) {
				t.Fatalf("%s %v: Peak = (%v, %v), reference (%v, %v)", p.Name, l, a, f, wantA, wantF)
			}
			if c.CycleTime() != l.CycleTime(p) {
				t.Fatalf("%s %v: CycleTime = %v, want %v", p.Name, l, c.CycleTime(), l.CycleTime(p))
			}
			floor := refModel(l, p, 0.5).Fidelity()
			fids := []float64{floor - 0.05, floor, wantF, math.Nextafter(wantF, 2), wantF + 0.01, 1}
			for f := 0.25; f < 1; f += 0.0125 {
				fids = append(fids, f)
			}
			for _, f := range fids {
				wa, wok := refAlphaForFidelity(l, p, f)
				if a, ok := c.AlphaForFidelity(f); ok != wok || bits(a) != bits(wa) {
					t.Fatalf("%s %v f=%v: AlphaForFidelity = (%v, %v), reference (%v, %v)", p.Name, l, f, a, ok, wa, wok)
				}
				if a, ok := l.AlphaForFidelity(p, f); ok != wok || bits(a) != bits(wa) {
					t.Fatalf("%s %v f=%v: AlphaForFidelity wrapper diverges", p.Name, l, f)
				}
				wt, wtok := refExpectedPairTime(l, p, f)
				if pt, ok := c.ExpectedPairTime(f); ok != wtok || pt != wt {
					t.Fatalf("%s %v f=%v: ExpectedPairTime = (%v, %v), reference (%v, %v)", p.Name, l, f, pt, ok, wt, wtok)
				}
				if !wok {
					continue
				}
				want := refModel(l, p, wa)
				if !sameModel(c.Model(wa), want) || !sameModel(l.Model(p, wa), want) {
					t.Fatalf("%s %v α=%v: Model diverges from reference", p.Name, l, wa)
				}
			}
			for _, a := range []float64{0, 1e-7, 1e-3, 0.1, 0.5, 0.97} {
				if !sameModel(c.Model(a), refModel(l, p, a)) {
					t.Fatalf("%s %v α=%v: Model diverges from reference", p.Name, l, a)
				}
			}
		}
	}
}

// TestAllocsLinkCurveAlpha gates curve inversion — run on every link
// registration and every budget bisection step — at zero allocations.
func TestAllocsLinkCurveAlpha(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	c := NewLinkCurve(LabLink(), Simulation())
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.AlphaForFidelity(0.9); !ok {
			t.Fatal("0.9 unreachable on the lab link")
		}
		c.Model(0.1)
	})
	if allocs != 0 {
		t.Errorf("AlphaForFidelity allocates %v/op, want 0", allocs)
	}
}

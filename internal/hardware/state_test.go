package hardware

import (
	"math/rand"
	"testing"

	"qnp/internal/linalg"
	"qnp/internal/quantum"
)

// refStateW is the multi-pass StateW that StateW must equal bit for bit:
// the model's matrix algebra one whole-matrix step at a time through
// workspace temporaries, each scaling the complex product s·v of every
// entry and each sum entry by entry.
func refStateW(ws *linalg.Workspace, m PairModel, idx quantum.BellIndex) *linalg.Matrix {
	scaleInto := func(dst *linalg.Matrix, s complex128, a *linalg.Matrix) {
		for i, v := range a.Data {
			dst.Data[i] = s * v
		}
	}
	addInto := func(dst, a, b *linalg.Matrix) {
		for i := range a.Data {
			dst.Data[i] = a.Data[i] + b.Data[i]
		}
	}
	dep, t := ws.GetRaw(4, 4), ws.GetRaw(4, 4)
	scaleInto(dep, complex((1+m.V)/2, 0), quantum.BellProjectorCached(idx))
	scaleInto(t, complex((1-m.V)/2, 0), quantum.BellProjectorCached(idx^2))
	addInto(dep, dep, t)
	bright := ws.Get(4, 4)
	bright.Data[15] = 1 // |11><11|
	rho := ws.GetRaw(4, 4)
	scaleInto(dep, complex((1-m.WDark)*m.G, 0), dep)
	scaleInto(bright, complex((1-m.WDark)*(1-m.G), 0), bright)
	addInto(rho, dep, bright)
	scaleInto(t, complex(m.WDark/4, 0), identity4)
	addInto(rho, rho, t)
	ws.Put(dep)
	ws.Put(t)
	ws.Put(bright)
	return rho
}

// identity4 is the 4×4 identity of refStateW's dark-count term.
var identity4 = linalg.Identity(4)

// stateModels are pair models across both hardware sets, three links and
// α from the dark-count regime to the fastest setting, plus random
// models with every component in [0, 1] and the corners 0 and 1.
func stateModels() []PairModel {
	var ms []PairModel
	for _, p := range []Params{Simulation(), NearTerm()} {
		for _, l := range []LinkConfig{LabLink(), TelecomLink(25000), TelecomLink(50000)} {
			for _, alpha := range []float64{1e-6, 1e-4, 0.01, 0.05, 0.2, 0.4, 0.5} {
				ms = append(ms, l.Model(p, alpha))
			}
		}
	}
	rng := rand.New(rand.NewSource(32))
	unit := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return rng.Float64()
	}
	for i := 0; i < 200; i++ {
		ms = append(ms, PairModel{V: unit(), G: unit(), WDark: unit()})
	}
	return ms
}

// TestStateWMatchesMultiPassReference pins the one-write StateW to the
// multi-pass reference bit for bit, signed zeros included, for both
// heralded signs.
func TestStateWMatchesMultiPassReference(t *testing.T) {
	for i, m := range stateModels() {
		for _, idx := range []quantum.BellIndex{quantum.PsiPlus, quantum.PsiMinus} {
			got, want := m.StateW(nil, idx), refStateW(nil, m, idx)
			if !sameBits(got, want) {
				t.Fatalf("model %d %+v idx=%v: StateW differs from the multi-pass reference:\n%v\nreference:\n%v",
					i, m, idx, got, want)
			}
		}
	}
}

// TestHeraldMatchesDrawOrder checks that Herald maps the one Intn(2) draw
// to Ψ+ or Ψ− and consumes nothing else from the stream.
func TestHeraldMatchesDrawOrder(t *testing.T) {
	got, want := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		idx := quantum.PsiPlus
		if want.Intn(2) == 1 {
			idx = quantum.PsiMinus
		}
		if h := Herald(got); h != idx {
			t.Fatalf("draw %d: Herald %v, want %v", i, h, idx)
		}
	}
	if got.Int63() != want.Int63() {
		t.Fatal("Herald consumed more than one draw")
	}
}

// BenchmarkStateW times the one-write StateW against the multi-pass
// reference for a lab link at α = 0.1.
func BenchmarkStateW(b *testing.B) {
	m := LabLink().Model(Simulation(), 0.1)
	b.Run("kernel", func(b *testing.B) {
		ws := linalg.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ws.Put(m.StateW(ws, quantum.PsiPlus|quantum.BellIndex(i&1)<<1))
		}
	})
	b.Run("reference", func(b *testing.B) {
		ws := linalg.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ws.Put(refStateW(ws, m, quantum.PsiPlus|quantum.BellIndex(i&1)<<1))
		}
	})
}

package quantum

import (
	"math/rand"
	"testing"

	"qnp/internal/linalg"
	"qnp/internal/race"
)

// warmWS returns a workspace pre-warmed by running fn once, so steady-state
// allocation measurements start from a populated pool.
func warmWS(fn func(ws *linalg.Workspace)) *linalg.Workspace {
	ws := linalg.NewWorkspace()
	fn(ws)
	return ws
}

// TestAllocsApplyGate1W pins the acceptance gate: the workspace-threaded
// gate application runs at zero allocs/op once the pool is warm.
func TestAllocsApplyGate1W(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	rho := BellState(PhiPlus)
	ws := warmWS(func(ws *linalg.Workspace) {
		ws.Put(ApplyGate1W(ws, rho, X, 0, 2))
	})
	allocs := testing.AllocsPerRun(100, func() {
		out := ApplyGate1W(ws, rho, X, 0, 2)
		ws.Put(out)
	})
	if allocs != 0 {
		t.Errorf("ApplyGate1W allocs/op = %v, want 0", allocs)
	}
}

// TestAllocsGateAndChannelW gates the remaining workspace-threaded gate and
// channel entry points at zero allocs/op once the pool is warm.
func TestAllocsGateAndChannelW(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	joint := linalg.Kron(WernerState(0.9), BellState(PsiPlus))
	pair := WernerState(0.8)
	for _, tc := range []struct {
		name string
		fn   func(ws *linalg.Workspace) *linalg.Matrix
	}{
		{"ApplyGate2W", func(ws *linalg.Workspace) *linalg.Matrix { return ApplyGate2W(ws, joint, CNOT, 1, 4) }},
		{"NoisyGate2W", func(ws *linalg.Workspace) *linalg.Matrix { return NoisyGate2W(ws, joint, CNOT, 1, 4, 0.98) }},
		{"ApplyDepolarizing1W", func(ws *linalg.Workspace) *linalg.Matrix { return ApplyDepolarizing1W(ws, pair, 0.02, 1, 2) }},
		{"ApplyPhaseFlipW", func(ws *linalg.Workspace) *linalg.Matrix { return ApplyPhaseFlipW(ws, pair, 0.05, 0, 2) }},
	} {
		ws := warmWS(func(ws *linalg.Workspace) { ws.Put(tc.fn(ws)) })
		if allocs := testing.AllocsPerRun(50, func() { ws.Put(tc.fn(ws)) }); allocs != 0 {
			t.Errorf("%s allocs/op = %v, want 0", tc.name, allocs)
		}
	}
}

func TestAllocsSwapW(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	rng := rand.New(rand.NewSource(7))
	cfg := SwapConfig{TwoQubitFidelity: 0.98, SingleQubitFidelity: 0.99, Readout: Readout{F0: 0.95, F1: 0.95}}
	a, b := BellState(PhiPlus), BellState(PsiMinus)
	ws := warmWS(func(ws *linalg.Workspace) {
		ws.Put(SwapW(ws, a, b, cfg, rng).Rho)
	})
	allocs := testing.AllocsPerRun(50, func() {
		res := SwapW(ws, a, b, cfg, rng)
		ws.Put(res.Rho)
	})
	if allocs != 0 {
		t.Errorf("SwapW allocs/op = %v, want 0", allocs)
	}
}

func TestAllocsDecohereAndMeasureW(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	rng := rand.New(rand.NewSource(7))
	rho := WernerState(0.9)
	ws := warmWS(func(ws *linalg.Workspace) {
		ws.Put(DecohereW(ws, rho, 0, 2, 0.01, 1.0, 0.5))
	})
	allocs := testing.AllocsPerRun(50, func() {
		out := DecohereW(ws, rho, 0, 2, 0.01, 1.0, 0.5)
		ws.Put(out)
	})
	if allocs != 0 {
		t.Errorf("DecohereW allocs/op = %v, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		_, post := MeasureW(ws, rho, 0, 2, PerfectReadout, rng)
		ws.Put(post)
	})
	if allocs != 0 {
		t.Errorf("MeasureW allocs/op = %v, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { Fidelity(rho, PhiPlus) }); allocs != 0 {
		t.Errorf("Fidelity allocs/op = %v, want 0", allocs)
	}
}

// The W variants must be bit-identical to the allocating API: same values
// and the same RNG consumption.
func TestSwapWMatchesSwap(t *testing.T) {
	cfg := SwapConfig{TwoQubitFidelity: 0.97, SingleQubitFidelity: 0.99, Readout: Readout{F0: 0.93, F1: 0.95}}
	for seed := int64(0); seed < 20; seed++ {
		a, b := WernerState(0.92), WernerFor(0.88, PsiPlus)
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		want := Swap(a, b, cfg, rng1)
		got := SwapW(linalg.NewWorkspace(), a, b, cfg, rng2)
		if got.Outcome != want.Outcome {
			t.Fatalf("seed %d: outcome %v != %v", seed, got.Outcome, want.Outcome)
		}
		if !sameBits(got.Rho, want.Rho) {
			t.Fatalf("seed %d: SwapW state differs from Swap by %g", seed, linalg.MaxAbsDiff(got.Rho, want.Rho))
		}
		if rng1.Int63() != rng2.Int63() {
			t.Fatalf("seed %d: RNG streams diverged", seed)
		}
	}
}

func TestDecohereWMatchesDecohere(t *testing.T) {
	rho := WernerState(0.85)
	for _, tc := range []struct{ t, t1, t2 float64 }{
		{0.01, 1.0, 0.5}, {0.5, 2.0, 0}, {0.1, 0, 0.3}, {0, 1, 1},
	} {
		want := Decohere(rho, 1, 2, tc.t, tc.t1, tc.t2)
		got := DecohereW(linalg.NewWorkspace(), rho, 1, 2, tc.t, tc.t1, tc.t2)
		if !sameBits(got, want) {
			t.Errorf("DecohereW(%v) differs from Decohere", tc)
		}
	}
}

func TestMeasureInBasisWMatches(t *testing.T) {
	for _, basis := range []Basis{ZBasis, XBasis, YBasis} {
		for seed := int64(1); seed < 10; seed++ {
			rho := WernerState(0.9)
			rng1 := rand.New(rand.NewSource(seed))
			rng2 := rand.New(rand.NewSource(seed))
			ro := Readout{F0: 0.9, F1: 0.85}
			wantBit, wantPost := MeasureInBasis(rho, 0, 2, basis, ro, rng1)
			gotBit, gotPost := MeasureInBasisW(linalg.NewWorkspace(), rho, 0, 2, basis, ro, rng2)
			if gotBit != wantBit || !sameBits(gotPost, wantPost) {
				t.Fatalf("basis %v seed %d: W variant diverged", basis, seed)
			}
		}
	}
}

func TestBellProjectorCachedReadOnlyValue(t *testing.T) {
	for b := BellIndex(0); b < 4; b++ {
		if linalg.MaxAbsDiff(BellProjectorCached(b), BellProjector(b)) != 0 {
			t.Errorf("cached projector %v differs from fresh", b)
		}
	}
	// The public BellProjector must keep returning mutable copies.
	p := BellProjector(PhiPlus)
	p.Set(0, 0, 99)
	if BellProjectorCached(PhiPlus).At(0, 0) == 99 {
		t.Fatal("BellProjector returned the shared cached matrix")
	}
}

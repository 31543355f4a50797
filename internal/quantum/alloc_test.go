package quantum

import (
	"math"
	"math/rand"
	"testing"

	"qnp/internal/linalg"
	"qnp/internal/linalg/linalgtest"
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
	rho := BellProjector(PhiPlus)
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
	joint := linalg.Kron(WernerFor(0.9, PhiPlus), BellProjector(PsiPlus))
	pair := WernerFor(0.8, PhiPlus)
	for _, tc := range []struct {
		name string
		fn   func(ws *linalg.Workspace) *linalg.Matrix
	}{
		{"ApplyGate2W", func(ws *linalg.Workspace) *linalg.Matrix { return ApplyGate2W(ws, joint, CNOT, 1, 4) }},
		{"NoisyGate2W", func(ws *linalg.Workspace) *linalg.Matrix { return NoisyGate2W(ws, joint, CNOT, 1, 4, 0.98) }},
		{"NoisyGate1W", func(ws *linalg.Workspace) *linalg.Matrix { return NoisyGate1W(ws, joint, H, 2, 4, 0.99) }},
		{"ApplyDepolarizing1W", func(ws *linalg.Workspace) *linalg.Matrix { return ApplyDepolarizing1W(ws, pair, 0.02, 1, 2) }},
		{"applyPhaseFlipW", func(ws *linalg.Workspace) *linalg.Matrix { return applyPhaseFlipW(ws, pair, 0.05, 0, 2) }},
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
	a, b := BellProjector(PhiPlus), BellProjector(PsiMinus)
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
	ps := PrepareSwap(cfg)
	allocs = testing.AllocsPerRun(50, func() {
		res := ps.SwapW(ws, a, b, rng)
		ws.Put(res.Rho)
	})
	if allocs != 0 {
		t.Errorf("PreparedSwap.SwapW allocs/op = %v, want 0", allocs)
	}
}

// TestAllocsPairChannels gates the in-place pair touch of a carbon move
// and of attempt dephasing at zero allocs/op: it uses no workspace at all.
func TestAllocsPairChannels(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	rho := WernerFor(0.9, PhiPlus)
	allocs := testing.AllocsPerRun(100, func() {
		var pc PairChannels
		pc.Decohere(0, 0.01, 1, 0.5)
		pc.Decohere(1, 0.01, 10, 1)
		pc.Depolarize(0, 0.02)
		pc.Apply(rho)
		pc = PairChannels{}
		pc.Decohere(1, 0.01, 10, 1)
		pc.PhaseFlip(1, 0.001)
		pc.Apply(rho)
	})
	if allocs != 0 {
		t.Errorf("PairChannels allocs/op = %v, want 0", allocs)
	}
}

func TestAllocsDecohereAndMeasureW(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	rng := rand.New(rand.NewSource(7))
	rho := WernerFor(0.9, PhiPlus)
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

// poisonedWS returns a warm workspace whose pooled buffers are NaN-filled
// over their whole capacity: a GetRaw destination that an operation does
// not fully overwrite leaks NaNs into its result.
func poisonedWS() *linalg.Workspace {
	ws := linalg.NewWorkspace()
	var held []*linalg.Matrix
	for _, dim := range []int{2, 4, 8, 16} {
		for i := 0; i < 16; i++ {
			m := ws.Get(dim, dim)
			m.Data = m.Data[:cap(m.Data)]
			for j := range m.Data {
				m.Data[j] = complex(math.NaN(), math.NaN())
			}
			held = append(held, m)
		}
	}
	for _, m := range held {
		ws.Put(m)
	}
	return ws
}

// wCase is one call of a workspace-threaded entry point: it returns the
// measured bit (0 where there is none) and the resulting state.
type wCase struct {
	name string
	run  func(ws *linalg.Workspace, rng *rand.Rand) (int, *linalg.Matrix)
}

// checkNilVsPoisoned runs each case twice per seed, once on a nil workspace
// (plain allocation) and once on a poisoned warm one, and requires
// bit-identical results, the same RNG position afterwards, and no Get that
// missed the poisoned pool.
func checkNilVsPoisoned(t *testing.T, cases []wCase) {
	t.Helper()
	for _, tc := range cases {
		for seed := int64(0); seed < 8; seed++ {
			rngNil := rand.New(rand.NewSource(seed))
			rngWS := rand.New(rand.NewSource(seed))
			ws := poisonedWS()
			misses := ws.Misses()
			wantBit, want := tc.run(nil, rngNil)
			gotBit, got := tc.run(ws, rngWS)
			if gotBit != wantBit || !sameBits(got, want) {
				t.Fatalf("%s seed %d: poisoned workspace gives bit %d, nil gives %d; states equal bit for bit: %v",
					tc.name, seed, gotBit, wantBit, sameBits(got, want))
			}
			if rngNil.Int63() != rngWS.Int63() {
				t.Fatalf("%s seed %d: RNG streams diverged", tc.name, seed)
			}
			if n := ws.Misses() - misses; n != 0 {
				t.Fatalf("%s: %d Gets missed the poisoned pool", tc.name, n)
			}
		}
	}
}

var (
	nvpPair1, nvpPair2 = WernerFor(0.92, PhiPlus), WernerFor(0.88, PsiPlus)
	nvpJoint           = linalg.Kron(nvpPair1, nvpPair2)
	nvpReadout         = Readout{F0: 0.9, F1: 0.85}
)

// TestWEntryPointsNilVsPoisonedWorkspace checks the gate, channel and
// computational-basis measurement entry points with checkNilVsPoisoned.
func TestWEntryPointsNilVsPoisonedWorkspace(t *testing.T) {
	checkNilVsPoisoned(t, []wCase{
		{"ApplyGate1W", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, ApplyGate1W(ws, nvpJoint, H, 2, 4)
		}},
		{"ApplyGate2W", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, ApplyGate2W(ws, nvpJoint, CNOT, 1, 4)
		}},
		{"NoisyGate1W", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, NoisyGate1W(ws, nvpJoint, H, 1, 4, 0.99)
		}},
		{"NoisyGate2W", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, NoisyGate2W(ws, nvpJoint, CNOT, 1, 4, 0.97)
		}},
		{"ApplyDepolarizing1W", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, ApplyDepolarizing1W(ws, nvpPair1, 0.02, 1, 2)
		}},
		{"applyPhaseFlipW", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, applyPhaseFlipW(ws, nvpPair1, 0.05, 0, 2)
		}},
		{"MeasureW", func(ws *linalg.Workspace, rng *rand.Rand) (int, *linalg.Matrix) {
			return MeasureW(ws, nvpJoint, 2, 4, nvpReadout, rng)
		}},
	})
}

// TestSwapWMatchesSwap checks SwapW with checkNilVsPoisoned: the swap on a
// poisoned workspace matches the plain-allocating swap bit for bit.
func TestSwapWMatchesSwap(t *testing.T) {
	cfg := SwapConfig{TwoQubitFidelity: 0.97, SingleQubitFidelity: 0.99, Readout: Readout{F0: 0.93, F1: 0.95}}
	checkNilVsPoisoned(t, []wCase{
		{"SwapW", func(ws *linalg.Workspace, rng *rand.Rand) (int, *linalg.Matrix) {
			res := SwapW(ws, nvpPair1, nvpPair2, cfg, rng)
			return int(res.Outcome), res.Rho
		}},
	})
}

// TestDecohereWMatchesDecohere checks DecohereW with checkNilVsPoisoned,
// with both mechanisms, each alone, and for zero idle time.
func TestDecohereWMatchesDecohere(t *testing.T) {
	checkNilVsPoisoned(t, []wCase{
		{"DecohereW", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, DecohereW(ws, nvpPair2, 1, 2, 0.01, 1.0, 0.5)
		}},
		{"DecohereW/T1only", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, DecohereW(ws, nvpPair2, 0, 2, 0.5, 2.0, 0)
		}},
		{"DecohereW/T2only", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, DecohereW(ws, nvpPair2, 1, 2, 0.1, 0, 0.3)
		}},
		{"DecohereW/idle0", func(ws *linalg.Workspace, _ *rand.Rand) (int, *linalg.Matrix) {
			return 0, DecohereW(ws, nvpPair2, 1, 2, 0, 1, 1)
		}},
	})
}

// TestMeasureInBasisWMatches checks MeasureInBasisW with checkNilVsPoisoned
// in each of the three bases.
func TestMeasureInBasisWMatches(t *testing.T) {
	checkNilVsPoisoned(t, []wCase{
		{"MeasureInBasisW/Z", func(ws *linalg.Workspace, rng *rand.Rand) (int, *linalg.Matrix) {
			return MeasureInBasisW(ws, nvpPair1, 0, 2, ZBasis, nvpReadout, rng)
		}},
		{"MeasureInBasisW/X", func(ws *linalg.Workspace, rng *rand.Rand) (int, *linalg.Matrix) {
			return MeasureInBasisW(ws, nvpPair1, 0, 2, XBasis, nvpReadout, rng)
		}},
		{"MeasureInBasisW/Y", func(ws *linalg.Workspace, rng *rand.Rand) (int, *linalg.Matrix) {
			return MeasureInBasisW(ws, nvpPair1, 1, 2, YBasis, nvpReadout, rng)
		}},
	})
}

func TestBellProjectorCachedReadOnlyValue(t *testing.T) {
	for b := BellIndex(0); b < 4; b++ {
		if linalgtest.MaxAbsDiff(BellProjectorCached(b), BellProjector(b)) != 0 {
			t.Errorf("cached projector %v differs from fresh", b)
		}
	}
	// The public BellProjector must keep returning mutable copies.
	p := BellProjector(PhiPlus)
	p.Data[0] = 99
	if BellProjectorCached(PhiPlus).At(0, 0) == 99 {
		t.Fatal("BellProjector returned the shared cached matrix")
	}
}

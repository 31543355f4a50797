package qnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"qnp/internal/sim"
)

// exactPhysicsGolden is the SHA-256 that TestExactPhysicsGolden computes.
// It was recorded before the local gate kernels replaced the lifted 16×16
// algebra, so it pins that every exact fidelity is unchanged bit for bit.
const exactPhysicsGolden = "1043b2eee9e335eddd5e51cce4756648a9c537ee152f66d446e4b6a61b0d8cc3"

// TestExactPhysicsGolden hashes the Float64bits of every recorded exact
// fidelity, plus each circuit's delivery count, from a short near-term run
// (Fig. 11's platform and plan, one hour of ContinuousKeep) and a short
// congested Fig. 9 dumbbell cell, at three seeds. The figure gates print
// three digits, so this is what catches a physics change that moves a
// fidelity in its last bits.
func TestExactPhysicsGolden(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	samples := 0
	for _, seed := range []int64{1, 2, 3} {
		for _, sc := range []Scenario{goldenNearTerm(t, seed), goldenFig9Cell(seed)} {
			res, err := sc.Run()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, cm := range res.Metrics.Circuits {
				put(uint64(cm.Delivered))
				for _, f := range cm.Fidelities {
					put(math.Float64bits(f))
				}
				samples += len(cm.Fidelities)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no fidelity was recorded")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exactPhysicsGolden {
		t.Fatalf("exact-physics digest over %d fidelities = %s, want %s", samples, got, exactPhysicsGolden)
	}
}

// goldenNearTerm is Fig. 11's hand-built plan driven by ContinuousKeep.
func goldenNearTerm(t *testing.T, seed int64) Scenario {
	cfg := NearTermConfig(25000)
	cfg.Seed = seed
	const linkF = 0.81
	pairTime, ok := cfg.Link.ExpectedPairTime(cfg.Params, linkF)
	if !ok {
		t.Fatal("near-term link cannot reach the hand-picked fidelity")
	}
	plan := Plan{
		Path:             []string{"n0", "n1", "n2"},
		LinkFidelity:     linkF,
		Cutoff:           1000 * sim.Millisecond,
		LinkPairTime:     pairTime,
		MaxLPR:           1 / pairTime.Seconds(),
		EndToEndFidelity: 0.5,
	}
	return Scenario{
		Config:   cfg,
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{
			ID: "nearterm", Plan: &plan,
			Workload:       ContinuousKeep{},
			RecordFidelity: true,
		}},
		Horizon: sim.Hour,
	}
}

// goldenFig9Cell is one congested Fig. 9 cell on the exact engine: 3-pair
// requests on A0-B0 every 100 ms while A1-B1 is saturated.
func goldenFig9Cell(seed int64) Scenario {
	cfg := DefaultConfig()
	cfg.Seed = seed
	return Scenario{
		Config:   cfg,
		Topology: DumbbellTopo(),
		Circuits: []CircuitSpec{
			{ID: "main", Src: "A0", Dst: "B0", Fidelity: 0.85, Policy: CutoffShort,
				Workload:       IntervalKeep{Interval: 100 * sim.Millisecond, Pairs: 3},
				RecordFidelity: true},
			{ID: "other", Src: "A1", Dst: "B1", Fidelity: 0.85, Policy: CutoffShort,
				Workload:       ContinuousKeep{ID: "bg"},
				RecordFidelity: true},
		},
		Horizon: 10 * sim.Second,
	}
}

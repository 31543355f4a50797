package linklayer

import (
	"math"
	"testing"

	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

type harness struct {
	sim    *sim.Simulation
	a, b   *device.Device
	engine *Engine
}

func newHarness(seed int64, qubitsPerSide int) *harness {
	s := sim.New(seed)
	p := hardware.Simulation()
	a := device.New(s, "a", p)
	b := device.New(s, "b", p)
	name := LinkName("a", "b")
	a.AddCommQubits(name, qubitsPerSide)
	b.AddCommQubits(name, qubitsPerSide)
	return &harness{sim: s, a: a, b: b, engine: NewEngine(s, name, hardware.LabLink(), a, b)}
}

// collect registers consumers at both sides that free qubits immediately,
// recording deliveries.
func (h *harness) collect(label Label, f, rate float64, t *testing.T) (*[]Delivery, *[]Delivery) {
	var da, db []Delivery
	err := h.engine.Register("a", label, f, rate, func(d Delivery) {
		da = append(da, d)
		h.a.Free(d.Pair.Half(d.Pair.LocalSide("a")))
	})
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	err = h.engine.Register("b", label, f, rate, func(d Delivery) {
		db = append(db, d)
		h.b.Free(d.Pair.Half(d.Pair.LocalSide("b")))
	})
	if err != nil {
		t.Fatalf("register b: %v", err)
	}
	return &da, &db
}

func TestPairsDeliveredToBothEnds(t *testing.T) {
	h := newHarness(1, 2)
	da, db := h.collect("vc1", 0.9, 10, t)
	h.sim.RunFor(2 * sim.Second)
	if len(*da) == 0 {
		t.Fatal("no deliveries")
	}
	if len(*da) != len(*db) {
		t.Fatalf("asymmetric deliveries: %d vs %d", len(*da), len(*db))
	}
	for i := range *da {
		x, y := (*da)[i], (*db)[i]
		if x.Corr != y.Corr || x.Idx != y.Idx || x.Label != y.Label {
			t.Fatal("delivery metadata differs between ends")
		}
		if x.Idx != quantum.PsiPlus && x.Idx != quantum.PsiMinus {
			t.Fatalf("heralded index %v", x.Idx)
		}
		if x.ModelFidelity < 0.9 {
			t.Fatalf("model fidelity %v below request", x.ModelFidelity)
		}
	}
	// Correlators are unique and sequenced.
	seen := map[Correlator]bool{}
	for _, d := range *da {
		if seen[d.Corr] {
			t.Fatal("duplicate correlator")
		}
		seen[d.Corr] = true
		if d.Corr.Link != LinkName("a", "b") {
			t.Fatal("correlator link name wrong")
		}
	}
}

func TestGenerationWaitsForBothSides(t *testing.T) {
	h := newHarness(2, 2)
	var da []Delivery
	if err := h.engine.Register("a", "vc1", 0.9, 10, func(d Delivery) { da = append(da, d) }); err != nil {
		t.Fatal(err)
	}
	h.sim.RunFor(sim.Second)
	if len(da) != 0 {
		t.Fatal("pairs generated with only one side registered")
	}
	if err := h.engine.Register("b", "vc1", 0.9, 10, func(Delivery) {}); err != nil {
		t.Fatal(err)
	}
	h.sim.RunFor(sim.Second)
	if len(da) == 0 {
		t.Fatal("no pairs after both sides registered")
	}
}

func TestGenerationRateMatchesModel(t *testing.T) {
	h := newHarness(3, 2)
	da, _ := h.collect("vc1", 0.95, 10, t)
	const horizon = 20 * sim.Second
	h.sim.RunFor(horizon)
	want, _ := h.engine.linkCurve().ExpectedPairTime(0.95)
	wantCount := float64(horizon) / float64(want)
	got := float64(len(*da))
	if got < wantCount*0.8 || got > wantCount*1.2 {
		t.Errorf("delivered %v pairs in %v, want ≈%.0f", got, horizon, wantCount)
	}
}

// Two circuits with equal LPR weights share the link's *time* equally, so
// the lower-fidelity circuit (faster pairs) delivers more pairs — the
// paper's stated WRR property (i).
func TestFairTimeSharingAcrossFidelities(t *testing.T) {
	h := newHarness(4, 4)
	daHi, _ := h.collect("hi", 0.95, 10, t)
	daLo, _ := h.collect("lo", 0.80, 10, t)
	h.sim.RunFor(30 * sim.Second)
	tHi, _ := h.engine.linkCurve().ExpectedPairTime(0.95)
	tLo, _ := h.engine.linkCurve().ExpectedPairTime(0.80)
	wantRatio := float64(tHi) / float64(tLo) // pairs_lo / pairs_hi if time is split evenly
	gotRatio := float64(len(*daLo)) / float64(len(*daHi))
	if gotRatio < wantRatio*0.7 || gotRatio > wantRatio*1.3 {
		t.Errorf("pair ratio lo/hi = %.2f, want ≈%.2f (equal time share)", gotRatio, wantRatio)
	}
}

// Weighted sharing: a circuit with twice the LPR weight gets twice the link
// time.
func TestWeightedSharing(t *testing.T) {
	h := newHarness(5, 4)
	daA, _ := h.collect("w1", 0.9, 10, t)
	daB, _ := h.collect("w2", 0.9, 20, t)
	h.sim.RunFor(30 * sim.Second)
	ratio := float64(len(*daB)) / float64(len(*daA))
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("weighted pair ratio = %.2f, want ≈2", ratio)
	}
}

// When consumers hold on to qubits, generation blocks — the memory-pressure
// behaviour behind the paper's "quantum congestion collapse" — and resumes
// when memory frees.
func TestMemoryPressureBlocksGeneration(t *testing.T) {
	h := newHarness(6, 2)
	var held []Delivery
	reg := func(node string) {
		err := h.engine.Register(node, "vc1", 0.9, 10, func(d Delivery) {
			if node == "a" {
				held = append(held, d)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg("a")
	reg("b")
	h.sim.RunFor(10 * sim.Second)
	// Two qubits per side → at most 2 pairs parked.
	if len(held) != 2 {
		t.Fatalf("held deliveries = %d, want 2 (memory-limited)", len(held))
	}
	// Free one pair: exactly one more round can complete.
	h.a.Discard(held[0].Pair)
	h.b.Discard(held[0].Pair)
	h.sim.RunFor(10 * sim.Second)
	if len(held) != 3 {
		t.Errorf("deliveries after freeing = %d, want 3", len(held))
	}
}

func TestDeactivateAbortsRound(t *testing.T) {
	h := newHarness(7, 2)
	da, _ := h.collect("vc1", 0.95, 10, t)
	// Let generation start, then deactivate mid-round.
	h.sim.RunFor(100 * sim.Microsecond)
	h.engine.Deactivate("a", "vc1")
	h.engine.Deactivate("b", "vc1")
	count := len(*da)
	h.sim.RunFor(5 * sim.Second)
	if len(*da) != count {
		t.Errorf("pairs delivered after deactivation: %d -> %d", count, len(*da))
	}
	if h.engine.Stats().RoundsAborted == 0 {
		t.Error("no round aborted")
	}
	// Qubits returned to the pool.
	if h.a.FreeCommCount(h.engine.name) != 2 || h.b.FreeCommCount(h.engine.name) != 2 {
		t.Error("aborted round leaked qubits")
	}
}

func TestUnreachableFidelityRejected(t *testing.T) {
	h := newHarness(8, 2)
	if err := h.engine.Register("a", "vc1", 0.9999, 10, func(Delivery) {}); err == nil {
		t.Error("unreachable fidelity accepted")
	}
}

func TestConflictingFidelityRejected(t *testing.T) {
	h := newHarness(9, 2)
	if err := h.engine.Register("a", "vc1", 0.9, 10, func(Delivery) {}); err != nil {
		t.Fatal(err)
	}
	if err := h.engine.Register("b", "vc1", 0.8, 10, func(Delivery) {}); err == nil {
		t.Error("conflicting fidelity accepted")
	}
}

func TestUpdateRateRebalances(t *testing.T) {
	h := newHarness(10, 4)
	daA, _ := h.collect("r1", 0.9, 10, t)
	daB, _ := h.collect("r2", 0.9, 10, t)
	h.sim.RunFor(10 * sim.Second)
	// Boost r2 to 3×; from here on it should receive ≈3× the pairs.
	a0, b0 := len(*daA), len(*daB)
	h.engine.UpdateRate("r2", 30)
	h.sim.RunFor(20 * sim.Second)
	dA, dB := len(*daA)-a0, len(*daB)-b0
	ratio := float64(dB) / float64(dA)
	if ratio < 2 || ratio > 4 {
		t.Errorf("post-update ratio = %.2f, want ≈3", ratio)
	}
}

func TestLateJoinerDoesNotStarve(t *testing.T) {
	h := newHarness(11, 4)
	daA, _ := h.collect("old", 0.9, 10, t)
	h.sim.RunFor(10 * sim.Second)
	// A new circuit joins; it must share fairly, not monopolise to catch up.
	daB, _ := h.collect("new", 0.9, 10, t)
	before := len(*daA)
	h.sim.RunFor(10 * sim.Second)
	dA := len(*daA) - before
	dB := len(*daB)
	if dA == 0 {
		t.Fatal("old circuit starved by joiner")
	}
	ratio := float64(dB) / float64(dA)
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("joiner/old ratio = %.2f, want ≈1", ratio)
	}
}

func TestFabric(t *testing.T) {
	h := newHarness(12, 2)
	f := NewFabric()
	f.Add(h.engine)
	if f.Between("a", "b") != h.engine || f.Between("b", "a") != h.engine {
		t.Error("Fabric lookup failed")
	}
	if len(f.All()) != 1 {
		t.Error("Fabric.All wrong")
	}
	if LinkName("x", "a") != "a|x" {
		t.Error("LinkName not canonical")
	}
	if h.engine.cfg.LengthM != 2 {
		t.Error("Config accessor wrong")
	}
}

func TestDeliveredStateMatchesHerald(t *testing.T) {
	h := newHarness(13, 2)
	da, _ := h.collect("vc1", 0.95, 10, t)
	h.sim.RunFor(2 * sim.Second)
	if len(*da) == 0 {
		t.Fatal("no deliveries")
	}
	model := h.engine.models[0.95].PairModel
	for _, d := range *da {
		// Each delivery copies the memoized state of its herald: the bits
		// StateW produces, untouched by earlier pairs' evolution.
		if want := model.StateW(nil, d.Idx); !sameBits(d.Pair.StateAt(d.Pair.CreatedAt()), want) {
			t.Fatalf("delivered %v state differs from StateW bit for bit", d.Idx)
		}
		// Freshly delivered, fidelity should be ≈ the model's.
		f := quantum.Fidelity(d.Pair.StateAt(d.Pair.CreatedAt()), d.Idx)
		if math.Abs(f-d.ModelFidelity) > 1e-9 {
			t.Fatalf("delivered fidelity %v != model %v", f, d.ModelFidelity)
		}
		if d.Pair.TrueIdx() != d.Idx {
			t.Fatal("pair true index differs from heralded index")
		}
	}
}

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b *linalg.Matrix) bool {
	for i, av := range a.Data {
		bv := b.Data[i]
		if math.Float64bits(real(av)) != math.Float64bits(real(bv)) ||
			math.Float64bits(imag(av)) != math.Float64bits(imag(bv)) {
			return false
		}
	}
	return len(a.Data) == len(b.Data)
}

func TestStatsAccumulate(t *testing.T) {
	h := newHarness(14, 2)
	h.collect("vc1", 0.9, 10, t)
	h.sim.RunFor(5 * sim.Second)
	st := h.engine.Stats()
	if st.PairsDelivered == 0 || st.Attempts < st.PairsDelivered {
		t.Errorf("stats implausible: %+v", st)
	}
}

// TestPaceClearedWhenSetterDeactivates is the pace-residue regression net:
// the absolute rate cap dies with the endpoint that set it, so a later
// tenant of the same label (a re-established circuit) never inherits it.
func TestPaceClearedWhenSetterDeactivates(t *testing.T) {
	h := newHarness(1, 2)
	h.collect("vc1", 0.9, 100, t)
	h.engine.SetPace("a", "vc1", 3)
	if got := h.engine.Paces()["vc1"]; got != 3 {
		t.Fatalf("pace not set: %v", got)
	}

	// The non-setter side deactivating must NOT clear the cap (the setter
	// still owns the link's shaping).
	h.engine.Deactivate("b", "vc1")
	if got := h.engine.Paces()["vc1"]; got != 3 {
		t.Fatalf("pace cleared by non-setter deactivation: %v", got)
	}

	// The setter deactivating clears it even though the request object
	// survives with the other side registered.
	if err := h.engine.Register("b", "vc1", 0.9, 100, func(d Delivery) {
		h.b.Free(d.Pair.Half(d.Pair.LocalSide("b")))
	}); err != nil {
		t.Fatal(err)
	}
	h.engine.Deactivate("a", "vc1")
	if got := h.engine.Paces()["vc1"]; got != 0 {
		t.Fatalf("pace survives its setter's deactivation: %v", got)
	}
	if len(h.engine.reqs) != 1 {
		t.Fatalf("request should survive with one side registered (got %d)", len(h.engine.reqs))
	}

	// Full deactivation removes the request entirely.
	h.engine.Deactivate("b", "vc1")
	if len(h.engine.reqs) != 0 {
		t.Fatalf("request not removed after both sides deactivated")
	}
}

// TestPaceCapsDeliveryRate pins SetPace's ceiling semantics on an otherwise
// idle link.
func TestPaceCapsDeliveryRate(t *testing.T) {
	h := newHarness(1, 2)
	da, _ := h.collect("vc1", 0.9, 1000, t)
	h.engine.SetPace("a", "vc1", 5)
	h.sim.RunFor(2 * sim.Second)
	if n := len(*da); n > 11 {
		t.Fatalf("paced request delivered %d pairs in 2 s (cap 5/s)", n)
	}
}

package qnet

import (
	"testing"

	"qnp/internal/device"
	"qnp/internal/linklayer"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

func TestChainQuickstart(t *testing.T) {
	net := Chain(DefaultConfig(), 3)
	vc, err := net.Establish("vc1", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delivered
	done := false
	vc.HandleHead(Handlers{
		OnPair:      func(d Delivered) { got = append(got, d) },
		OnComplete:  func(RequestID) { done = true },
		AutoConsume: true,
	})
	vc.HandleTail(Handlers{AutoConsume: true})
	if err := vc.Submit(Request{ID: "r1", Type: Keep, NumPairs: 5}); err != nil {
		t.Fatal(err)
	}
	net.Run(30 * sim.Second)
	if len(got) != 5 || !done {
		t.Fatalf("delivered %d pairs, done=%v", len(got), done)
	}
	for _, d := range got {
		if !d.State.Valid() {
			t.Error("invalid declared state")
		}
	}
}

func TestDumbbellTopology(t *testing.T) {
	net := Dumbbell(DefaultConfig())
	vc, err := net.Establish("c1", "A0", "B0", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vc.Plan.Path) != 4 {
		t.Fatalf("A0→B0 path = %v", vc.Plan.Path)
	}
	// Second circuit shares the bottleneck link.
	vc2, err := net.Establish("c2", "A1", "B1", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	count1, count2 := 0, 0
	vc.HandleHead(Handlers{OnPair: func(Delivered) { count1++ }, AutoConsume: true})
	vc.HandleTail(Handlers{AutoConsume: true})
	vc2.HandleHead(Handlers{OnPair: func(Delivered) { count2++ }, AutoConsume: true})
	vc2.HandleTail(Handlers{AutoConsume: true})
	if err := vc.Submit(Request{ID: "r1", Type: Keep, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	if err := vc2.Submit(Request{ID: "r1", Type: Keep, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	net.Run(60 * sim.Second)
	if count1 != 3 || count2 != 3 {
		t.Fatalf("deliveries c1=%d c2=%d, want 3/3", count1, count2)
	}
}

func TestDefaultAutoConsumeWithoutHandlers(t *testing.T) {
	// A circuit with no handlers must not wedge on end-node memory.
	net := Chain(DefaultConfig(), 2)
	vc, err := net.Establish("c", "n0", "n1", 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := vc.Submit(Request{ID: "r", Type: Keep, NumPairs: 10}); err != nil {
		t.Fatal(err)
	}
	net.Run(10 * sim.Second)
	free := net.Device("n0").FreeCommCount(linklayer.LinkName("n0", "n1"))
	if free != 2 {
		t.Errorf("head free qubits = %d after unhandled deliveries", free)
	}
}

// TestAutoConsumeFreesExpiredEarlyQubits pins the EARLY expiry path of the
// qubit-ownership rule. An AutoConsume end never owns an early hand-off, so
// when its chain expires the node must free the half itself; otherwise the
// expired halves hold every end-link communication qubit and the circuit
// stalls without delivering a pair.
func TestAutoConsumeFreesExpiredEarlyQubits(t *testing.T) {
	net := Chain(DefaultConfig(), 3)
	vc, err := net.EstablishPlan("vc", cutoffPlan(t, net, "n0", "n2", 0.8, 2*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	delivered, expired := 0, 0
	vc.HandleHead(Handlers{
		AutoConsume: true,
		OnPair:      func(Delivered) { delivered++ },
		OnExpire:    func(RequestID, Correlator) { expired++ },
	})
	vc.HandleTail(Handlers{AutoConsume: true})
	if err := vc.Submit(Request{ID: "e", Type: Early}); err != nil {
		t.Fatal(err)
	}
	net.Run(4 * sim.Second)
	if expired == 0 {
		t.Fatal("no early chain expired: the test no longer reaches the expiry path")
	}
	if delivered < 100 {
		t.Errorf("delivered %d pairs with %d head expiries: expired early qubits were not freed", delivered, expired)
	}
}

// TestTeardownSilencesTail pins that Circuit.Teardown clears the tail's
// handlers at once although the tail's circuit state lives until the
// TEARDOWN wave arrives: pairs the tail delivers in that window reach no
// user callback and are freed, not leaked to an application that no longer
// listens.
func TestTeardownSilencesTail(t *testing.T) {
	const at = 2 * sim.Second
	// run delivers to an owning tail handler, optionally tearing the circuit
	// down at the given time; every classical message takes 20 ms, so the
	// TEARDOWN wave needs 40 ms to reach the tail.
	run := func(teardown bool) (net *Network, atTeardown, total int) {
		net = Chain(DefaultConfig(), 3)
		vc, err := net.Establish("vc", "n0", "n2", 0.8, nil)
		if err != nil {
			t.Fatal(err)
		}
		tail := net.Device("n2")
		vc.HandleHead(Handlers{AutoConsume: true})
		vc.HandleTail(Handlers{
			OnPair: func(d Delivered) {
				total++
				tail.Free(d.Pair.Half(d.Pair.LocalSide("n2")))
			},
			OnExpire: func(RequestID, Correlator) { total++ },
		})
		net.Classical.SetProcessingDelay(20 * sim.Millisecond)
		if err := vc.Submit(Request{ID: "r", Type: Keep}); err != nil {
			t.Fatal(err)
		}
		net.Run(at)
		atTeardown = total
		if teardown {
			vc.Teardown()
		}
		net.Run(sim.Second)
		return net, atTeardown, total
	}
	_, ref, refTotal := run(false)
	net, before, total := run(true)
	if before != ref {
		t.Fatalf("runs diverged before the teardown: %d vs %d tail callbacks", before, ref)
	}
	if refTotal <= ref {
		t.Fatal("no tail deliveries after the teardown instant even without teardown: the window is empty")
	}
	if total != before {
		t.Errorf("tail handlers fired %d times after Teardown", total-before)
	}
	if free := net.Device("n2").FreeCommCount(linklayer.LinkName("n1", "n2")); free != 2 {
		t.Errorf("tail holds %d of 2 communication qubits after the TEARDOWN wave: window deliveries leaked", 2-free)
	}
}

// TestTeardownLeavesOwnedEarlyQubits pins the other side of the EARLY
// ownership rule: an early hand-off to an owning application stays the
// application's through a teardown, although Teardown clears the tail's
// handlers before the TEARDOWN wave reaches it and confirmations and
// expiries keep arriving in that window. The node frees every other half.
func TestTeardownLeavesOwnedEarlyQubits(t *testing.T) {
	net := Chain(DefaultConfig(), 3)
	vc, err := net.Establish("vc", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// held maps each end to the early qubits its application still owns,
	// keyed by the local link correlator's Seq.
	held := map[string]map[uint64]*device.Qubit{}
	owning := func(node string) Handlers {
		mine := map[uint64]*device.Qubit{}
		held[node] = mine
		release := func(c Correlator) {
			if q := mine[c.Seq]; q != nil {
				net.Device(node).Free(q)
				delete(mine, c.Seq)
			}
		}
		return Handlers{
			OnEarlyPair: func(d Delivered) { mine[d.LocalCorr.Seq] = d.Pair.Half(d.Pair.LocalSide(node)) },
			OnPair:      func(d Delivered) { release(d.LocalCorr) },
			OnExpire:    func(_ RequestID, c Correlator) { release(c) },
		}
	}
	vc.HandleHead(owning("n0"))
	vc.HandleTail(owning("n2"))
	net.Classical.SetProcessingDelay(20 * sim.Millisecond)
	if err := vc.Submit(Request{ID: "e", Type: Early}); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * sim.Second)
	vc.Teardown()
	net.Run(sim.Second)
	if len(held["n0"]) == 0 || len(held["n2"]) == 0 {
		t.Fatalf("owned early qubits at teardown: head %d, tail %d; want some at both ends", len(held["n0"]), len(held["n2"]))
	}
	for _, node := range []string{"n0", "n2"} {
		owned := map[*device.Qubit]bool{}
		for _, q := range held[node] {
			owned[q] = true
		}
		inUse := net.Device(node).Allocated()
		for _, q := range inUse {
			if !owned[q] {
				t.Errorf("%s: %v qubit allocated but not owned by the application", node, q.Kind())
			}
		}
		if len(inUse) != len(owned) {
			t.Errorf("%s: %d qubits allocated, the application owns %d", node, len(inUse), len(owned))
		}
	}
}

func TestCircuitOptionsPolicies(t *testing.T) {
	net := Dumbbell(DefaultConfig())
	long, err := net.Establish("l", "A0", "B0", 0.85, &CircuitOptions{Policy: CutoffLong})
	if err != nil {
		t.Fatal(err)
	}
	short, err := net.Establish("s", "A1", "B1", 0.85, &CircuitOptions{Policy: CutoffShort})
	if err != nil {
		t.Fatal(err)
	}
	if short.Plan.Cutoff >= long.Plan.Cutoff {
		t.Errorf("short cutoff %v not shorter than long %v", short.Plan.Cutoff, long.Plan.Cutoff)
	}
	none, err := net.Establish("n", "A0", "B1", 0.85, &CircuitOptions{Policy: CutoffNone})
	if err != nil {
		t.Fatal(err)
	}
	if none.Plan.Cutoff != 0 {
		t.Error("CutoffNone produced a cutoff")
	}
}

func TestDuplicateCircuitRejected(t *testing.T) {
	net := Chain(DefaultConfig(), 2)
	if _, err := net.Establish("c", "n0", "n1", 0.8, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Establish("c", "n0", "n1", 0.8, nil); err == nil {
		t.Error("duplicate circuit accepted")
	}
	if _, err := net.Establish("c2", "n0", "zz", 0.8, nil); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := net.Establish("c3", "n0", "n1", 0.9999, nil); err == nil {
		t.Error("impossible fidelity accepted")
	}
}

func TestTeardownAndReestablish(t *testing.T) {
	net := Chain(DefaultConfig(), 3)
	vc, err := net.Establish("c", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc.Teardown()
	net.Run(sim.Millisecond)
	vc2, err := net.Establish("c", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatalf("re-establish failed: %v", err)
	}
	count := 0
	vc2.HandleHead(Handlers{OnPair: func(Delivered) { count++ }, AutoConsume: true})
	vc2.HandleTail(Handlers{AutoConsume: true})
	if err := vc2.Submit(Request{ID: "r", Type: Keep, NumPairs: 2}); err != nil {
		t.Fatal(err)
	}
	net.Run(20 * sim.Second)
	if count != 2 {
		t.Errorf("deliveries after re-establish = %d", count)
	}
}

func TestMeasureRequestThroughFacade(t *testing.T) {
	net := Chain(DefaultConfig(), 3)
	vc, err := net.Establish("c", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var headBits, tailBits []Delivered
	vc.HandleHead(Handlers{OnPair: func(d Delivered) { headBits = append(headBits, d) }})
	vc.HandleTail(Handlers{OnPair: func(d Delivered) { tailBits = append(tailBits, d) }})
	if err := vc.Submit(Request{ID: "r", Type: Measure, MeasureBasis: quantum.ZBasis, NumPairs: 10}); err != nil {
		t.Fatal(err)
	}
	net.Run(60 * sim.Second)
	if len(headBits) != 10 || len(tailBits) != 10 {
		t.Fatalf("measure deliveries %d/%d", len(headBits), len(tailBits))
	}
	agree := 0
	for i := range headBits {
		wantEqual := headBits[i].State.XBit() == 0
		if (headBits[i].Bit == tailBits[i].Bit) == wantEqual {
			agree++
		}
	}
	if agree < 8 {
		t.Errorf("correct correlations %d/10", agree)
	}
}

func TestNearTermConfigBuilds(t *testing.T) {
	cfg := NearTermConfig(25000)
	cfg.Seed = 3
	net := Chain(cfg, 3)
	// The near-term platform cannot reach high fidelities; 0.5 must plan.
	vc, err := net.EstablishPlan("c", cutoffPlan(t, net, "n0", "n2", 0.5, 2*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if vc.Plan.LinkFidelity <= 0.5 {
		t.Errorf("near-term link fidelity = %v", vc.Plan.LinkFidelity)
	}
}

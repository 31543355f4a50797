package qnet

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"qnp/internal/linklayer"
	"qnp/internal/runner"
	"qnp/internal/sim"
)

// hold is a Holding that departs a circuit d after its traffic opens. It
// draws nothing from the churn stream, so it schedules exactly what a fixed
// holding time would.
func hold(d sim.Duration) Dist { return func(*rand.Rand) sim.Duration { return d } }

// cutoffPlan is net's controller plan for src→dst with its cutoff
// replaced by a hand-picked one: how a tuned deployment (§5.3) installs a
// cutoff, through EstablishPlan or CircuitSpec.Plan.
func cutoffPlan(t *testing.T, net *Network, src, dst string, f float64, cutoff sim.Duration) Plan {
	t.Helper()
	dec, _, err := net.Controller.Place(PlacementRequest{Src: src, Dst: dst, Fidelity: f, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := dec.Plan
	plan.Cutoff = cutoff
	return plan
}

// TestStreamFamiliesDisjoint is the regression net for the RNG
// stream-offset collision: the selection stream used to sit at the odd
// offset 104729, which circuit index 52364's workload stream (2i+1) shared,
// so at large circuit counts two supposedly independent streams were
// identical. Engine streams now take even offsets, workloads odd ones.
func TestStreamFamiliesDisjoint(t *testing.T) {
	if selectionStreamOffset%2 != 0 || churnStreamOffset%2 != 0 {
		t.Fatalf("engine stream offsets must be even: selection=%d churn=%d",
			selectionStreamOffset, churnStreamOffset)
	}
	if selectionStreamOffset == churnStreamOffset {
		t.Fatal("selection and churn streams share an offset")
	}
	// Offset 0 would alias an engine stream onto the bare-seed physics
	// stream at replica seed 0 (0*Stride+0 == 0).
	if selectionStreamOffset == 0 || churnStreamOffset == 0 {
		t.Fatal("engine stream offsets must be nonzero to stay off the physics stream")
	}
	// The old collision index, and a broad sweep toward the million-user
	// north star.
	for _, i := range []int{0, 1, 52364, 1 << 20} {
		off := workloadStreamOffset(i)
		if off%2 != 1 {
			t.Fatalf("workload stream offset for circuit %d is even (%d)", i, off)
		}
		if off == selectionStreamOffset || off == churnStreamOffset {
			t.Fatalf("workload stream for circuit %d collides with an engine stream (offset %d)", i, off)
		}
	}
	for i := 0; i < 200000; i++ {
		if off := workloadStreamOffset(i); off == selectionStreamOffset || off == churnStreamOffset {
			t.Fatalf("workload stream for circuit %d collides at offset %d", i, off)
		}
	}
}

// TestChurnLifecycle drives one scheduled arrival/departure end to end:
// the circuit establishes on the simulation clock, carries traffic only
// inside its window, and the lifetime stamps and admission counters land.
func TestChurnLifecycle(t *testing.T) {
	res, err := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{
			{ID: "base", Src: "n0", Dst: "n2", Fidelity: 0.8,
				Workload: ContinuousKeep{}},
			{ID: "late", Src: "n0", Dst: "n2", Fidelity: 0.8,
				ArriveAt: 2 * sim.Second, Holding: hold(3 * sim.Second),
				Workload: ContinuousKeep{}},
		},
		Horizon: 8 * sim.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	late := m.Circuit("late")
	if !late.Established {
		t.Fatalf("late circuit did not establish: %q", late.Err)
	}
	if late.ArrivedAt != m.Start.Add(2*sim.Second) {
		t.Errorf("ArrivedAt = %v, want %v", late.ArrivedAt, m.Start.Add(2*sim.Second))
	}
	if late.EstablishedAt < late.ArrivedAt {
		t.Errorf("EstablishedAt %v before ArrivedAt %v", late.EstablishedAt, late.ArrivedAt)
	}
	wantDown := late.EstablishedAt.Add(3 * sim.Second)
	if late.TornDownAt != wantDown {
		t.Errorf("TornDownAt = %v, want %v", late.TornDownAt, wantDown)
	}
	if got, want := late.Lifetime(m.End), wantDown.Sub(late.EstablishedAt); got != want {
		t.Errorf("Lifetime = %v, want %v", got, want)
	}
	if late.Delivered == 0 {
		t.Error("late circuit delivered nothing inside its window")
	}
	for _, at := range late.DeliveryTimes {
		if at < late.EstablishedAt || at > late.TornDownAt {
			t.Fatalf("delivery at %v outside lifetime [%v, %v]", at, late.EstablishedAt, late.TornDownAt)
		}
	}
	if m.Admitted != 2 || m.RejectedAtAdmission != 0 {
		t.Errorf("admission counts: admitted=%d rejected=%d", m.Admitted, m.RejectedAtAdmission)
	}
	base := m.Circuit("base")
	if base.TornDownAt != 0 {
		t.Errorf("base circuit departed at %v; should live to the end", base.TornDownAt)
	}
	if base.Delivered == 0 {
		t.Error("base circuit delivered nothing")
	}
	if tw := m.TimeWeightedEER(); tw <= 0 {
		t.Errorf("TimeWeightedEER = %v", tw)
	}
}

// TestChurnTeardownRestoresState is the acceptance gate for churn-safe
// teardown: after every circuit departs, all device qubits are free again,
// every link engine has dropped its registrations, and no pace cap
// survives.
func TestChurnTeardownRestoresState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	res, err := Scenario{
		Config:   cfg,
		Topology: DumbbellTopo(),
		Circuits: []CircuitSpec{
			{ID: "a", Src: "A0", Dst: "B0", Fidelity: 0.85, Policy: CutoffShort,
				Holding: hold(2 * sim.Second), Workload: MeasureStream{Rate: 10}},
			{ID: "b", Src: "A1", Dst: "B1", Fidelity: 0.85, Policy: CutoffShort,
				ArriveAt: sim.Second, Holding: hold(2 * sim.Second), Workload: MeasureStream{Rate: 10}},
		},
		Horizon: 8 * sim.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	for _, id := range []CircuitID{"a", "b"} {
		cm := m.Circuit(id)
		if !cm.Established || cm.TornDownAt == 0 {
			t.Fatalf("circuit %s: established=%v torndown=%v (%s)", id, cm.Established, cm.TornDownAt, cm.Err)
		}
		if cm.Delivered == 0 {
			t.Errorf("circuit %s delivered nothing before departing", id)
		}
	}
	net := res.Net
	for name, eng := range net.Fabric.All() {
		if paces := eng.Paces(); len(paces) != 0 {
			t.Errorf("link %s still holds link layer registrations after all departures: %v", name, paces)
		}
	}
	for _, id := range net.NodeIDs() {
		for _, q := range net.Device(id).Allocated() {
			t.Errorf("node %s %v qubit still allocated after all departures", id, q.Kind())
		}
	}
}

// TestChurnAdmissionRefit pins the §4.4 re-fit rule end to end on the
// dumbbell bottleneck: the first circuit gets the full MaxLPR/2, a second
// sharing the bottleneck halves both, and a departure restores the
// survivor — propagated to every node on its path. A third arrival whose
// demand no longer fits is rejected at admission, while the static
// allocation admits it.
func TestChurnAdmissionRefit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	net := Dumbbell(cfg)
	a, err := net.Establish("a", "A0", "B0", 0.85, &CircuitOptions{Policy: CutoffShort})
	if err != nil {
		t.Fatal(err)
	}
	full := a.Plan.MaxEER
	if full <= 0 {
		t.Fatalf("no allocation under EnforceEER: %+v", a.Plan)
	}
	b, err := net.Establish("b", "A1", "B1", 0.85, &CircuitOptions{Policy: CutoffShort})
	if err != nil {
		t.Fatal(err)
	}
	if b.Plan.MaxEER != full/2 {
		t.Errorf("second circuit allocation = %v, want %v (half of %v)", b.Plan.MaxEER, full/2, full)
	}
	net.Run(sim.Second) // let the re-fit UpdateMsg reach every hop
	for _, node := range a.Plan.Path {
		e, ok := net.Node(node).Circuit("a")
		if !ok {
			t.Fatalf("node %s lost circuit a", node)
		}
		if e.MaxEER != full/2 {
			t.Errorf("node %s: circuit a MaxEER = %v after b joined, want %v", node, e.MaxEER, full/2)
		}
	}

	// Departure: the survivor is re-fitted back up at every hop.
	b.Teardown()
	net.Run(sim.Second)
	for _, node := range a.Plan.Path {
		e, _ := net.Node(node).Circuit("a")
		if e.MaxEER != full {
			t.Errorf("node %s: circuit a MaxEER = %v after b left, want %v", node, e.MaxEER, full)
		}
	}

	// Admission: a demand that fits alone but not shared is rejected while
	// the bottleneck is occupied.
	if _, err := net.Establish("c", "A1", "B0", 0.85,
		&CircuitOptions{Policy: CutoffShort, MinEER: 0.8 * full}); err == nil || !strings.Contains(err.Error(), "admission rejected") {
		t.Errorf("oversubscribed arrival not rejected: %v", err)
	}

	// A caller-fixed cap below the circuit's own demand is rejected too —
	// admitting it would shape the demand forever against a cap it can
	// never meet.
	if _, err := net.Establish("d", "A1", "B0", 0.85,
		&CircuitOptions{Policy: CutoffShort, MaxEER: full / 4, MinEER: full / 2}); !errors.Is(err, ErrAdmissionRejected) {
		t.Errorf("fixed cap below demand not rejected: %v", err)
	}

	// The static controller admits the same arrival: allocations never
	// dilute there.
	scfg := cfg
	scfg.Alloc = AllocStatic
	snet := Dumbbell(scfg)
	if _, err := snet.Establish("a", "A0", "B0", 0.85, &CircuitOptions{Policy: CutoffShort}); err != nil {
		t.Fatal(err)
	}
	c, err := snet.Establish("c", "A1", "B0", 0.85, &CircuitOptions{Policy: CutoffShort, MinEER: 0.8 * full})
	if err != nil {
		t.Fatalf("static allocation rejected arrival: %v", err)
	}
	if c.Plan.MaxEER != full {
		t.Errorf("static allocation = %v, want %v regardless of sharing", c.Plan.MaxEER, full)
	}
}

// TestAdmissionRecheckAtConfirm pins the racing-arrival window: two
// circuits that both plan against an empty bottleneck within one
// establishment round trip cannot both be admitted below their demand —
// the demand is re-checked when each CONFIRM returns, and the later
// arrival is rejected and rolled back.
func TestAdmissionRecheckAtConfirm(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	net := Dumbbell(cfg)
	net.Start()
	probe, _, err := net.planFor("A0", "B0", 0.85, &CircuitOptions{Policy: CutoffShort})
	if err != nil {
		t.Fatal(err)
	}
	demand := 0.8 * probe.Plan.MaxEER // fits alone, not when shared

	type outcome struct {
		vc  *Circuit
		err error
	}
	var a, b outcome
	opts := &CircuitOptions{Policy: CutoffShort, MinEER: demand}
	net.EstablishAsync("a", "A0", "B0", 0.85, opts, func(vc *Circuit, err error) { a = outcome{vc, err} })
	net.EstablishAsync("b", "A1", "B1", 0.85, opts, func(vc *Circuit, err error) { b = outcome{vc, err} })
	net.Run(sim.Second)

	if a.err != nil || a.vc == nil {
		t.Fatalf("first arrival should be admitted: %v", a.err)
	}
	if a.vc.Plan.MaxEER < demand {
		t.Errorf("admitted circuit holds allocation %v below demand %v", a.vc.Plan.MaxEER, demand)
	}
	if b.err == nil || !errors.Is(b.err, ErrAdmissionRejected) {
		t.Fatalf("racing arrival not rejected at confirm: vc=%v err=%v", b.vc, b.err)
	}
	if _, ok := net.Node("MA").Circuit("b"); ok {
		t.Error("rejected arrival left routing state behind at MA")
	}
	if alloc, ok := net.Controller.Allocation("a"); !ok || alloc != probe.Plan.MaxEER {
		t.Errorf("survivor allocation = %v, %v; want full %v after rollback", alloc, ok, probe.Plan.MaxEER)
	}
}

// TestTeardownIdempotent pins churn-safe teardown: a second Teardown call
// sends no second TEARDOWN flood and cannot destroy a circuit that was
// re-established under the same ID.
func TestTeardownIdempotent(t *testing.T) {
	net := Chain(DefaultConfig(), 3)
	vc, err := net.Establish("vc", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc.Teardown()
	net.Run(sim.Second) // drain the teardown wave
	sent := net.Classical.Stats().MessagesSent

	vc.Teardown() // second call: no-op
	net.Run(sim.Second)
	if got := net.Classical.Stats().MessagesSent; got != sent {
		t.Errorf("second Teardown sent %d extra classical messages", got-sent)
	}

	// Re-establish under the same ID; the stale handle must not be able to
	// destroy the new circuit.
	vc2, err := net.Establish("vc", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc.Teardown()
	net.Run(sim.Second)
	if _, ok := net.Node("n0").Circuit("vc"); !ok {
		t.Fatal("stale Teardown handle destroyed the re-established circuit")
	}
	vc2.Teardown()
	net.Run(sim.Second)
	if _, ok := net.Node("n0").Circuit("vc"); ok {
		t.Fatal("live Teardown did not remove the circuit")
	}
}

// TestReestablishNoPaceResidue is the regression net for head-end pace
// residue: a circuit torn down mid-traffic leaves its link-label free of
// the old SetPace cap, so a successor over the same label (same circuit
// ID, re-established) generates unthrottled.
func TestReestablishNoPaceResidue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	net := Chain(cfg, 2)
	vc, err := net.Establish("vc", "n0", "n1", 0.85, &CircuitOptions{Policy: CutoffShort})
	if err != nil {
		t.Fatal(err)
	}
	// Activate a rate-based request so the head paces the link, then tear
	// down mid-traffic while the cap is in force.
	if err := vc.Submit(Request{ID: "r", Type: Measure, Rate: 5}); err != nil {
		t.Fatal(err)
	}
	net.Run(sim.Second / 2)
	eng := net.Fabric.Between("n0", "n1")
	if p := eng.Paces()[linklayer.Label("vc")]; p != 5 {
		t.Fatalf("pace not in force before teardown (got %v)", p)
	}
	vc.Teardown()
	net.Run(sim.Second / 2)
	if p := eng.Paces()[linklayer.Label("vc")]; p != 0 {
		t.Fatalf("pace cap survives teardown: %v", p)
	}

	// Re-establish the same ID with a manual, unpoliced plan over the same
	// path: the label is reused, and the successor must run uncapped.
	plan := vc.Plan
	plan.MaxEER = 0
	vc2, err := net.EstablishPlan("vc", plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := vc2.Submit(Request{ID: "r", Type: Measure, Rate: 0}); err != nil {
		t.Fatal(err)
	}
	net.Run(sim.Second)
	if p := eng.Paces()[linklayer.Label("vc")]; p != 0 {
		t.Errorf("re-established circuit inherited pace cap %v", p)
	}
}

// TestRunErrorPathsStampMetrics pins satellite 4: a Run that fails mid-way
// (a non-optional circuit with an infeasible target, after a first circuit
// already installed) still returns well-formed partial metrics — window
// stamped, network counts filled.
func TestRunErrorPathsStampMetrics(t *testing.T) {
	res, err := Scenario{
		Topology: ChainTopo(4),
		Circuits: []CircuitSpec{
			{ID: "ok", Src: "n0", Dst: "n1", Fidelity: 0.8, Workload: ContinuousKeep{}},
			{ID: "doomed", Src: "n0", Dst: "n3", Fidelity: 0.999},
		},
		Horizon: 2 * sim.Second,
	}.Run()
	if err == nil {
		t.Fatal("expected establishment error for infeasible fidelity")
	}
	m := res.Metrics
	if m.Start == 0 || m.End == 0 || m.End < m.Start {
		t.Errorf("window not stamped on error path: Start=%v End=%v", m.Start, m.End)
	}
	if m.Nodes != 4 || m.Links != 3 {
		t.Errorf("network counts not stamped: nodes=%d links=%d", m.Nodes, m.Links)
	}
	if m.NodeStats == nil || m.ClassicalMessages == 0 {
		t.Errorf("node stats / classical counts not stamped: %+v", m)
	}
	if cm := m.Circuit("doomed"); cm.Err == "" {
		t.Error("failed circuit carries no error")
	}
}

func churnReplicaScenario() Scenario {
	cfg := DefaultConfig()
	cfg.EnforceEER = true
	return Scenario{
		Name:     "churn-rt",
		Config:   cfg,
		Topology: DumbbellTopo(),
		Circuits: []CircuitSpec{{
			ID: "vc", Select: RandomPairs(4), Fidelity: 0.85, Policy: CutoffShort,
			Arrival: Uniform(0, 2*sim.Second), Holding: Exponential(sim.Second),
			MinEER: 5, Workload: MeasureStream{Rate: 5}, Optional: true,
		}},
		Horizon: 3 * sim.Second,
	}
}

// TestChurnSpecRoundTripAndSharding: a churn scenario (arrival and holding
// distributions, admission on MinEER) run as a job on worker processes
// gives, replica by replica, the metrics of a direct run at the same seed,
// so admission and delivery under churn survive the process boundary.
func TestChurnSpecRoundTripAndSharding(t *testing.T) {
	const replicas, seed = 3, 5
	want := make([][]byte, replicas)
	admitted := 0
	for r := range want {
		sc := churnReplicaScenario()
		sc.Config.Seed = runner.DeriveSeed(seed, r)
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		admitted += res.Metrics.Admitted
		if want[r], err = json.Marshal(res.Metrics); err != nil {
			t.Fatal(err)
		}
	}
	if admitted == 0 {
		t.Fatal("no circuits admitted; churn never exercised")
	}
	checkBackends(t, "churn", seed, want, map[string]runner.Backend{
		"shards-2": runner.Fleet{Shards: 2},
	})
}

// TestExpiryCountedOncePerEnd pins the expiry accounting contract: both the
// head and tail metrics wrappers count expiries, and each expiry event
// reaches exactly one end — so the circuit's Expired counter equals the sum
// of per-end application callbacks, never double an event.
func TestExpiryCountedOncePerEnd(t *testing.T) {
	headSeen, tailSeen := 0, 0
	plan := cutoffPlan(t, Chain(DefaultConfig(), 3), "n0", "n2", 0.8, 2*sim.Millisecond)
	res, err := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{
			ID: "vc", Plan: &plan,
			Workload: Batch{Requests: []Request{{ID: "e", Type: Early, NumPairs: 0}}},
			Head: Handlers{
				AutoConsume: true,
				OnExpire:    func(RequestID, Correlator) { headSeen++ },
			},
			Tail: Handlers{
				AutoConsume: true,
				OnExpire:    func(RequestID, Correlator) { tailSeen++ },
			},
		}},
		Horizon: 4 * sim.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Metrics.Circuit("vc")
	if headSeen+tailSeen == 0 {
		t.Skip("no expiries induced; cutoff too generous for this plant")
	}
	if cm.Expired != headSeen+tailSeen {
		t.Errorf("Expired = %d, want %d (head %d + tail %d): expiry events double-counted",
			cm.Expired, headSeen+tailSeen, headSeen, tailSeen)
	}
}

package signaling

import (
	"fmt"
	"testing"

	"qnp/internal/core"
	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/routing"
	"qnp/internal/sim"
)

// testNet builds a 4-node chain with full plumbing.
func testNet(t *testing.T) (*sim.Simulation, *Signaler, []*core.Node, *routing.Controller) {
	t.Helper()
	s := sim.New(1)
	nw := netsim.New(s)
	fabric := linklayer.NewFabric()
	params := hardware.Simulation()
	link := hardware.LabLink()
	g := routing.NewGraph()

	var devs []*device.Device
	var ids []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("n%d", i)
		ids = append(ids, id)
		nw.AddNode(netsim.NodeID(id))
		g.AddNode(id)
		devs = append(devs, device.New(s, id, params))
	}
	for i := 0; i+1 < 4; i++ {
		name := linklayer.LinkName(ids[i], ids[i+1])
		devs[i].AddCommQubits(name, 2)
		devs[i+1].AddCommQubits(name, 2)
		nw.Connect(netsim.NodeID(ids[i]), netsim.NodeID(ids[i+1]), link.PropagationDelay())
		fabric.Add(linklayer.NewEngine(s, name, link, devs[i], devs[i+1]))
		g.AddLink(ids[i], ids[i+1], link)
	}
	var nodes []*core.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, core.NewNode(s, nw, devs[i], fabric))
	}
	return s, New(nw, nodes), nodes, routing.NewController(g, params)
}

// probePlan fetches a budgeted long-cutoff plan through the Place probe
// surface for the four-node chain testNet builds.
func probePlan(ctrl *routing.Controller, src, dst string, f float64) (routing.Plan, error) {
	dec, _, err := ctrl.Place(routing.PlacementRequest{Src: src, Dst: dst, Fidelity: f, Cutoff: routing.CutoffLong, Probe: true})
	return dec.Plan, err
}

func TestEstablishInstallsWholePath(t *testing.T) {
	s, sig, nodes, ctrl := testNet(t)
	plan, err := probePlan(ctrl, "n0", "n3", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ready := false
	if err := sig.Establish("c1", plan, func() { ready = true }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	if !ready {
		t.Fatal("circuit never confirmed")
	}
	for i, n := range nodes {
		e, ok := n.Circuit("c1")
		if !ok {
			t.Fatalf("node %d has no entry", i)
		}
		if e.Cutoff != plan.Cutoff || e.DownMinFidelity != 0 && e.DownMinFidelity != plan.LinkFidelity {
			t.Errorf("node %d entry fields wrong: %+v", i, e)
		}
		switch i {
		case 0:
			if e.Role() != core.RoleHead {
				t.Error("n0 not head")
			}
		case 3:
			if e.Role() != core.RoleTail {
				t.Error("n3 not tail")
			}
		default:
			if e.Role() != core.RoleIntermediate {
				t.Errorf("n%d not intermediate", i)
			}
		}
	}
}

// End-to-end: establish via signalling, request pairs, get deliveries —
// the full stack wired by the protocols rather than by hand.
func TestEstablishedCircuitDeliversPairs(t *testing.T) {
	s, sig, nodes, ctrl := testNet(t)
	plan, err := probePlan(ctrl, "n0", "n3", 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if err := sig.Establish("c1", plan, nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)

	var got []core.Delivered
	nodes[0].SetHandlers("c1", core.Handlers{AutoConsume: true, OnPair: func(d core.Delivered) {
		got = append(got, d)
	}})
	nodes[3].SetHandlers("c1", core.Handlers{AutoConsume: true, OnPair: func(core.Delivered) {}})
	if err := nodes[0].Submit(core.Request{ID: "r", Circuit: "c1", Type: core.Keep, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(30 * sim.Second)
	if len(got) != 3 {
		t.Fatalf("delivered %d pairs, want 3", len(got))
	}
}

func TestTeardownRemovesState(t *testing.T) {
	s, sig, nodes, ctrl := testNet(t)
	plan, _ := probePlan(ctrl, "n0", "n3", 0.8)
	if err := sig.Establish("c1", plan, nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	sig.Teardown("c1", plan)
	s.RunFor(sim.Millisecond)
	for i, n := range nodes {
		if _, ok := n.Circuit("c1"); ok {
			t.Errorf("node %d still has the circuit", i)
		}
	}
	// The path can be re-established afterwards.
	ready := false
	if err := sig.Establish("c1", plan, func() { ready = true }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	if !ready {
		t.Error("re-establishment failed")
	}
}

func TestEstablishValidation(t *testing.T) {
	_, sig, _, ctrl := testNet(t)
	if err := sig.Establish("bad", routing.Plan{Path: []string{"n0"}}, nil); err == nil {
		t.Error("short path accepted")
	}
	plan, _ := probePlan(ctrl, "n0", "n3", 0.8)
	plan.Path = []string{"zz", "n1"}
	if err := sig.Establish("bad2", plan, nil); err == nil {
		t.Error("unknown head accepted")
	}
}

// TestUpdateAllocationPropagates pins the re-fit propagation path: an
// UpdateMsg rides hop by hop and rewrites MaxEER in every node's routing
// entry, head first (synchronously — it owns pacing).
func TestUpdateAllocationPropagates(t *testing.T) {
	s, sig, nodes, ctrl := testNet(t)
	plan, err := probePlan(ctrl, "n0", "n3", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	plan.MaxEER = 10
	if err := sig.Establish("c1", plan, nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)

	sig.UpdateAllocation("c1", plan.Path, 4)
	if e, _ := nodes[0].Circuit("c1"); e.MaxEER != 4 {
		t.Fatalf("head not updated synchronously: MaxEER = %v", e.MaxEER)
	}
	s.RunFor(sim.Millisecond)
	for i, n := range nodes {
		e, ok := n.Circuit("c1")
		if !ok {
			t.Fatalf("node %d lost entry", i)
		}
		if e.MaxEER != 4 {
			t.Errorf("node %d MaxEER = %v, want 4", i, e.MaxEER)
		}
	}

	// An update for a torn-down circuit is dropped harmlessly.
	sig.Teardown("c1", plan)
	s.RunFor(sim.Millisecond)
	sig.UpdateAllocation("c1", plan.Path, 7)
	s.RunFor(sim.Millisecond)
	if _, ok := nodes[1].Circuit("c1"); ok {
		t.Fatal("torn-down circuit resurrected by update")
	}
}

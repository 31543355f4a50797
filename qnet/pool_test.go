package qnet

import (
	"fmt"
	"reflect"
	"testing"

	"qnp/internal/core"
	"qnp/internal/linklayer"
	"qnp/internal/sim"
)

// lifetimeCase is one network for the teardown-and-reinstall test: its
// circuit "c" runs through mid, where swaps (and, on carbon platforms,
// storage moves) queue on the device.
type lifetimeCase struct {
	name  string
	build func(seed int64) *Network
	// establish installs "c"; it is called again for the reinstall.
	establish func(n *Network) (*Circuit, error)
	mid       string
	pairs     int
	// early submits the first request as EARLY, so the teardown also
	// catches halves handed to an AutoConsume end before their TRACK.
	early bool
}

// lifetimeResult is what a run leaves behind; two runs on the same seed
// must produce equal results.
type lifetimeResult struct {
	Nodes     map[string]core.NodeStats
	Links     map[string]linklayer.Stats
	Messages  uint64
	Delivered int
	Now       sim.Time
}

// runLifetime establishes "c" and starts a Keep request on it, waits until
// the intermediate holds a swap or move in flight past the moment the
// TEARDOWN reaches it (the skip-th such op), tears "c" down there and
// reinstalls it under the same ID for a fresh request. It checks that the
// teardown frees c's end nodes, every reinstalled delivery holds its head's
// half in the declared state, and every qubit ends free once all circuits
// are gone.
func runLifetime(t *testing.T, tc lifetimeCase, seed int64, skip int) lifetimeResult {
	t.Helper()
	n := tc.build(seed)
	c, err := tc.establish(n)
	if err != nil {
		t.Fatal(err)
	}
	c.HandleHead(Handlers{AutoConsume: true})
	c.HandleTail(Handlers{AutoConsume: true})
	typ := Keep
	if tc.early {
		typ = Early
	}
	if err := c.Submit(Request{ID: "old", Type: typ, NumPairs: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	mid := n.Device(tc.mid)
	reach := n.Classical.PathDelay(toNodeIDs(c.Plan.Path[:indexOf(c.Plan.Path, tc.mid)+1]))
	for seen := 0; ; {
		if !n.Sim.Step() {
			t.Fatal("simulation drained before an operation was in flight")
		}
		if mid.BusyUntil() > n.Sim.Now().Add(reach) {
			if seen == skip {
				break
			}
			seen++
			for mid.BusyUntil() > n.Sim.Now() && n.Sim.Step() {
			}
		}
	}
	c.Teardown()
	for {
		if _, live := n.Node(tc.mid).Circuit("c"); !live {
			break
		}
		n.Sim.Step()
	}
	if mid.BusyUntil() <= n.Sim.Now() {
		t.Fatal("the intermediate's operations finished before its teardown")
	}
	n.Run(sim.Second)
	// No other circuit uses c's end nodes: teardown must have freed them. A
	// leaked half would also starve the reinstalled circuit below.
	if !allFree(t, n, seed, c.Plan.Path[0], c.Plan.Path[len(c.Plan.Path)-1]) {
		t.FailNow()
	}

	c, err = tc.establish(n)
	if err != nil {
		t.Fatalf("reinstall: %v", err)
	}
	delivered, done := 0, false
	check := func(d Delivered) {
		delivered++
		if d.Request != "new" || d.Pair == nil {
			t.Errorf("seed %d: reinstalled circuit delivered %+v", seed, d)
		} else if d.Pair.LocalSide(c.Plan.Path[0]) < 0 || d.State != d.Pair.TrueIdx() {
			t.Errorf("seed %d: reinstalled circuit delivered %+v (true state %v)", seed, d, d.Pair.TrueIdx())
		}
	}
	c.HandleHead(Handlers{AutoConsume: true, OnPair: check, OnComplete: func(RequestID) { done = true }})
	c.HandleTail(Handlers{AutoConsume: true})
	if err := c.Submit(Request{ID: "new", Type: Keep, NumPairs: tc.pairs}); err != nil {
		t.Fatal(err)
	}
	for !done && n.Sim.Step() {
	}
	if delivered != tc.pairs {
		t.Fatalf("seed %d: reinstalled circuit delivered %d of %d pairs", seed, delivered, tc.pairs)
	}
	res := lifetimeResult{
		Nodes:     map[string]core.NodeStats{},
		Links:     map[string]linklayer.Stats{},
		Messages:  n.Classical.Stats().MessagesSent,
		Delivered: delivered,
		Now:       n.Sim.Now(),
	}
	for _, id := range n.NodeIDs() {
		res.Nodes[id] = n.Node(id).Stats()
	}
	for name, e := range n.Fabric.All() {
		res.Links[name] = e.Stats()
	}

	for _, circ := range n.circuits {
		circ.Teardown()
	}
	n.Run(sim.Second)
	allFree(t, n, seed, n.NodeIDs()...)
	return res
}

// allFree reports whether every qubit at the given nodes is free, and
// reports each one that is not.
func allFree(t *testing.T, n *Network, seed int64, ids ...string) bool {
	t.Helper()
	free := true
	for _, id := range ids {
		for _, q := range n.Device(id).Qubits() {
			if !q.Free() {
				t.Errorf("seed %d: %s qubit %d (%v) still allocated after teardown", seed, id, q.ID(), q.Kind())
				free = false
			}
		}
	}
	return free
}

func indexOf(path []string, id string) int {
	for i, p := range path {
		if p == id {
			return i
		}
	}
	return -1
}

// TestCutoffDuringStorageMove arms a cutoff shorter than the near-term
// platform's move to storage, so every intermediate pair expires while its
// move is in flight: the expiry frees the half, and the move's completion,
// not the expiry, returns the slot to the pool.
func TestCutoffDuringStorageMove(t *testing.T) {
	cfg := NearTermConfig(25000)
	n := Chain(cfg, 3)
	const linkF = 0.81
	pairTime, ok := cfg.Link.ExpectedPairTime(cfg.Params, linkF)
	if !ok {
		t.Fatal("near-term link cannot reach the hand-picked fidelity")
	}
	c, err := n.EstablishPlan("c", Plan{
		Path:             []string{"n0", "n1", "n2"},
		LinkFidelity:     linkF,
		Cutoff:           cfg.Params.MoveDuration() / 2,
		LinkPairTime:     pairTime,
		MaxLPR:           1 / pairTime.Seconds(),
		EndToEndFidelity: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.HandleHead(Handlers{AutoConsume: true})
	c.HandleTail(Handlers{AutoConsume: true})
	if err := c.Submit(Request{ID: "r", Type: Keep, NumPairs: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	n.Run(2 * sim.Minute)
	st := n.Node("n1").Stats()
	if st.Discards < 10 || st.Swaps != 0 {
		t.Fatalf("intermediate discarded %d pairs and swapped %d; want every pair to expire mid-move", st.Discards, st.Swaps)
	}
	c.Teardown()
	n.Run(sim.Second)
	for _, id := range n.NodeIDs() {
		for _, q := range n.Device(id).Qubits() {
			if !q.Free() {
				t.Errorf("%s qubit %d (%v) still allocated after teardown", id, q.ID(), q.Kind())
			}
		}
	}
}

// TestTeardownMidFlightThenReinstall tears a circuit down while its swaps
// and storage moves are in flight — their completions then run against
// pooled records the old circuit owned — and reinstalls the same circuit
// ID, on a Werner dumbbell (with a competing circuit on the bottleneck)
// and on the near-term carbon chain.
func TestTeardownMidFlightThenReinstall(t *testing.T) {
	nearTermPlan := func(n *Network) Plan {
		const linkF = 0.81
		pairTime, ok := n.Config.Link.ExpectedPairTime(n.Config.Params, linkF)
		if !ok {
			t.Fatal("near-term link cannot reach the hand-picked fidelity")
		}
		return Plan{
			Path:             []string{"n0", "n1", "n2"},
			LinkFidelity:     linkF,
			Cutoff:           1000 * sim.Millisecond,
			LinkPairTime:     pairTime,
			MaxLPR:           1 / pairTime.Seconds(),
			EndToEndFidelity: 0.5,
		}
	}
	wernerDumbbell := func(seed int64) *Network {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Physics = PhysicsWerner
		n := Dumbbell(cfg)
		bg, err := n.Establish("bg", "A1", "B1", 0.85, &CircuitOptions{Policy: CutoffShort})
		if err != nil {
			t.Fatal(err)
		}
		bg.HandleHead(Handlers{AutoConsume: true})
		bg.HandleTail(Handlers{AutoConsume: true})
		if err := bg.Submit(Request{ID: "bg", Type: Keep, NumPairs: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	establishDumbbell := func(n *Network) (*Circuit, error) {
		return n.Establish("c", "A0", "B0", 0.85, &CircuitOptions{Policy: CutoffShort})
	}
	cases := []lifetimeCase{
		{name: "werner-dumbbell", build: wernerDumbbell, establish: establishDumbbell, mid: "MA", pairs: 200},
		{name: "werner-dumbbell-early", build: wernerDumbbell, establish: establishDumbbell, mid: "MA", pairs: 200, early: true},
		{
			name: "nearterm-chain",
			build: func(seed int64) *Network {
				cfg := NearTermConfig(25000)
				cfg.Seed = seed
				return Chain(cfg, 3)
			},
			establish: func(n *Network) (*Circuit, error) { return n.EstablishPlan("c", nearTermPlan(n)) },
			mid:       "n1",
			pairs:     3,
		},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			for skip := 0; skip < 3; skip++ {
				tc, seed, skip := tc, seed, skip
				t.Run(fmt.Sprintf("%s/seed%d/op%d", tc.name, seed, skip), func(t *testing.T) {
					first := runLifetime(t, tc, seed, skip)
					if again := runLifetime(t, tc, seed, skip); !reflect.DeepEqual(first, again) {
						t.Errorf("a fresh network on the same seed ended differently:\n%+v\n%+v", first, again)
					}
				})
			}
		}
	}
}

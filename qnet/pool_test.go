package qnet

import (
	"fmt"
	"reflect"
	"testing"

	"qnp/internal/core"
	"qnp/internal/linalg"
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
		for _, q := range n.Device(id).Allocated() {
			t.Errorf("seed %d: %s %v qubit still allocated after teardown", seed, id, q.Kind())
			free = false
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
		for _, q := range n.Device(id).Allocated() {
			t.Errorf("%s %v qubit still allocated after teardown", id, q.Kind())
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

// TestWorkspaceAccounting audits the simulation's matrix pool around exact
// chain runs that swap link and merged pairs and discard at the cutoff: on
// the near-term platform every intermediate half moves to storage first,
// and on the lab platform a Measure request measures its halves. Each run
// ends in a teardown. At each audit no buffer sits in the pool twice and
// none is the state of a pair a held qubit carries; a second, identical
// run on the warm pool takes every matrix from it.
func TestWorkspaceAccounting(t *testing.T) {
	nearTerm := func() (*Network, func(*Network) (*Circuit, error)) {
		cfg := NearTermConfig(25000)
		const linkF = 0.81
		pairTime, ok := cfg.Link.ExpectedPairTime(cfg.Params, linkF)
		if !ok {
			t.Fatal("near-term link cannot reach the hand-picked fidelity")
		}
		plan := Plan{
			Path:             []string{"n0", "n1", "n2", "n3"},
			LinkFidelity:     linkF,
			Cutoff:           1000 * sim.Millisecond,
			LinkPairTime:     pairTime,
			MaxLPR:           1 / pairTime.Seconds(),
			EndToEndFidelity: 0.5,
		}
		return Chain(cfg, 4), func(n *Network) (*Circuit, error) { return n.EstablishPlan("c", plan) }
	}
	lab := func() (*Network, func(*Network) (*Circuit, error)) {
		return Chain(DefaultConfig(), 4), func(n *Network) (*Circuit, error) {
			return n.Establish("c", "n0", "n3", 0.85, &CircuitOptions{Policy: CutoffShort})
		}
	}
	for _, tc := range []struct {
		name    string
		build   func() (*Network, func(*Network) (*Circuit, error))
		measure bool
		horizon sim.Duration
	}{
		{name: "nearterm-storage", build: nearTerm, horizon: 20 * sim.Minute},
		{name: "lab-measure", build: lab, measure: true, horizon: 5 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, establish := tc.build()
			ws := n.Sim.Workspace()
			// run returns the misses the run itself took, not its audits'.
			run := func() uint64 {
				c, err := establish(n)
				if err != nil {
					t.Fatal(err)
				}
				kept, measured := 0, 0
				c.HandleHead(Handlers{AutoConsume: true, OnPair: func(d Delivered) {
					if d.Type == Measure {
						measured++
					} else {
						kept++
					}
				}})
				c.HandleTail(Handlers{AutoConsume: true})
				reqs := []Request{{ID: "keep", Type: Keep, NumPairs: 1 << 20}}
				if tc.measure {
					reqs = []Request{{ID: "keep", Type: Keep, NumPairs: 30}, {ID: "measure", Type: Measure, NumPairs: 1 << 20}}
				}
				for _, r := range reqs {
					if err := c.Submit(r); err != nil {
						t.Fatal(err)
					}
				}
				misses := ws.Misses()
				n.Run(tc.horizon)
				misses = ws.Misses() - misses
				var swaps, discards uint64
				for _, id := range c.Plan.Path[1 : len(c.Plan.Path)-1] {
					st := n.Node(id).Stats()
					swaps, discards = swaps+st.Swaps, discards+st.Discards
				}
				if kept == 0 || measured == 0 && tc.measure || swaps == 0 || discards == 0 {
					t.Fatalf("run delivered %d kept and %d measured pairs, swapped %d and discarded %d; want each path taken", kept, measured, swaps, discards)
				}
				// Audit while pairs are held, then after the teardown.
				for len(heldStates(n)) == 0 && n.Sim.Step() {
				}
				auditPool(t, n)
				c.Teardown()
				before := ws.Misses()
				n.Run(sim.Second)
				misses += ws.Misses() - before
				allFree(t, n, n.Config.Seed, n.NodeIDs()...)
				auditPool(t, n)
				return misses
			}
			run()
			if misses := run(); misses != 0 {
				t.Errorf("a run on the warm pool missed it %d times, want 0", misses)
			}
		})
	}
}

// heldStates returns the buffers of the pair states held qubits carry.
func heldStates(n *Network) map[*complex128]bool {
	held := map[*complex128]bool{}
	for _, id := range n.NodeIDs() {
		for _, q := range n.Device(id).Allocated() {
			if p := q.Pair(); p != nil && p.Rho() != nil {
				held[backing(p.Rho())] = true
			}
		}
	}
	return held
}

// auditPool drains the simulation's matrix pool bucket by bucket, fails if
// a buffer comes out twice or is the state of a pair that a held qubit
// carries, and puts every buffer back.
func auditPool(t *testing.T, n *Network) {
	t.Helper()
	held := heldStates(n)
	ws := n.Sim.Workspace()
	seen := map[*complex128]bool{}
	var drained []*linalg.Matrix
	for _, side := range []int{2, 4, 8, 16} { // one shape per bucket
		for {
			misses := ws.Misses()
			m := ws.GetRaw(side, side)
			if ws.Misses() != misses {
				break // the bucket is empty, and m is a new matrix
			}
			b := backing(m)
			if seen[b] {
				t.Errorf("a %d×%d buffer sits in the pool twice", side, side)
			}
			if held[b] {
				t.Errorf("a %d×%d buffer in the pool is a held pair's state", side, side)
			}
			seen[b] = true
			drained = append(drained, m)
		}
	}
	for _, m := range drained {
		ws.Put(m)
	}
}

// backing identifies a matrix by its buffer.
func backing(m *linalg.Matrix) *complex128 { return &m.Data[:cap(m.Data)][0] }

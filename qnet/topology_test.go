package qnet

import (
	"fmt"
	"testing"

	"qnp/internal/sim"
)

// edges flattens a network's link set into sorted "a-b" strings.
func edges(n *Network) []string {
	var out []string
	for _, a := range n.NodeIDs() {
		for _, b := range n.Graph.Neighbors(a) {
			if a < b {
				out = append(out, a+"-"+b)
			}
		}
	}
	return out
}

// connected walks the graph from the first node and checks every node is
// reachable.
func connected(n *Network) bool {
	ids := n.NodeIDs()
	if len(ids) == 0 {
		return true
	}
	seen := map[string]bool{ids[0]: true}
	queue := []string{ids[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range n.Graph.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(ids)
}

func TestTopologyGenerators(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name  string
		build func() *Network
		nodes int
		links int
		// wantHops is the expected Diameter hop count (0 = don't check).
		wantHops int
	}{
		{"chain-5", func() *Network { return Chain(cfg, 5) }, 5, 4, 4},
		{"ring-3", func() *Network { return Ring(cfg, 3) }, 3, 3, 1},
		{"ring-6", func() *Network { return Ring(cfg, 6) }, 6, 6, 3},
		{"star-2", func() *Network { return Star(cfg, 2) }, 2, 1, 1},
		{"star-7", func() *Network { return Star(cfg, 7) }, 7, 6, 2},
		{"grid-1x4", func() *Network { return Grid(cfg, 1, 4) }, 4, 3, 3},
		{"grid-2x3", func() *Network { return Grid(cfg, 2, 3) }, 6, 7, 3},
		{"grid-3x3", func() *Network { return Grid(cfg, 3, 3) }, 9, 12, 4},
		{"waxman-12", func() *Network { return RandomGraph(cfg, 12, 0.5, 0.4) }, 12, 0, 0},
		{"waxman-1", func() *Network { return RandomGraph(cfg, 1, 0.4, 0.4) }, 1, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build()
			if got := len(n.NodeIDs()); got != tc.nodes {
				t.Errorf("nodes = %d, want %d", got, tc.nodes)
			}
			if tc.links > 0 {
				if got := n.LinkCount(); got != tc.links {
					t.Errorf("links = %d, want %d", got, tc.links)
				}
			}
			if !connected(n) {
				t.Error("graph not connected")
			}
			if tc.wantHops > 0 {
				if _, _, hops := n.Diameter(); hops != tc.wantHops {
					t.Errorf("diameter = %d hops, want %d", hops, tc.wantHops)
				}
			}
		})
	}
}

func TestRandomGraphSeededDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	a := edges(RandomGraph(cfg, 15, 0.5, 0.4))
	b := edges(RandomGraph(cfg, 15, 0.5, 0.4))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different graphs:\n%v\n%v", a, b)
	}
	// A random graph must span at least the stitching tree.
	if len(a) < 14 {
		t.Errorf("only %d edges for 15 nodes", len(a))
	}
	cfg.Seed = 12
	c := edges(RandomGraph(cfg, 15, 0.5, 0.4))
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRandomGraphMinimumIsConnected(t *testing.T) {
	// With a vanishing link probability the stitching pass alone must
	// still deliver a connected graph (a tree).
	cfg := DefaultConfig()
	cfg.Seed = 5
	n := RandomGraph(cfg, 10, 1e-9, 0.4)
	if !connected(n) {
		t.Fatal("stitching failed to connect the graph")
	}
	if got := n.LinkCount(); got != 9 {
		t.Errorf("links = %d, want spanning tree of 9", got)
	}
}

// TestRingCircuit drives real traffic over a generated topology: the ring
// routes around whichever side is shorter and delivers pairs end to end.
func TestRingCircuit(t *testing.T) {
	net := Ring(DefaultConfig(), 5)
	vc, err := net.Establish("rc", "n0", "n2", 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vc.Plan.Path) != 3 {
		t.Fatalf("n0→n2 path on a 5-ring = %v, want 2 hops", vc.Plan.Path)
	}
	got := 0
	vc.HandleHead(Handlers{AutoConsume: true, OnPair: func(Delivered) { got++ }})
	vc.HandleTail(Handlers{AutoConsume: true})
	if err := vc.Submit(Request{ID: "r", Type: Keep, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	net.Run(30 * sim.Second)
	if got != 3 {
		t.Fatalf("delivered %d of 3 pairs over the ring", got)
	}
}

// TestTopologySpecValidation: a scenario whose declared shape cannot be
// built fails Run with the topology's error and builds nothing.
func TestTopologySpecValidation(t *testing.T) {
	for _, tc := range []struct {
		topo TopologySpec
		err  string
	}{
		{ChainTopo(1), "qnet: chain topology needs ≥ 2 nodes (got 1)"},
		{RingTopo(2), "qnet: ring topology needs ≥ 3 nodes (got 2)"},
		{StarTopo(1), "qnet: star topology needs ≥ 2 nodes (got 1)"},
		{GridTopo(1, 1), "qnet: grid topology needs ≥ 2 nodes (got 1x1)"},
		{WaxmanTopo(1, 0, 0), "qnet: waxman topology needs ≥ 2 nodes (got 1)"},
		{nil, "qnet: scenario declares no topology"},
	} {
		res, err := Scenario{Topology: tc.topo, Horizon: sim.Second}.Run()
		if err == nil || err.Error() != tc.err {
			t.Errorf("Run error = %v, want %q", err, tc.err)
		}
		if res != nil {
			t.Errorf("%q: Run returned a result", tc.err)
		}
	}
}

package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qnp/internal/hardware"
)

func ringGraph(n int) *Graph {
	g := NewGraph()
	lab := hardware.LabLink()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		g.AddLink(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%n), lab)
	}
	return g
}

func gridGraph(w, h int) *Graph {
	g := NewGraph()
	lab := hardware.LabLink()
	id := func(x, y int) string { return fmt.Sprintf("n%d", y*w+x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(id(x, y))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddLink(id(x, y), id(x+1, y), lab)
			}
			if y+1 < h {
				g.AddLink(id(x, y), id(x, y+1), lab)
			}
		}
	}
	return g
}

// randomGraph is a Waxman-flavoured random graph: a connecting ring plus
// random chords from a fixed seed.
func randomGraph(n, chords int, seed int64) *Graph {
	g := ringGraph(n)
	lab := hardware.LabLink()
	rng := rand.New(rand.NewSource(seed))
	for added := 0; added < chords; {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		na, nb := fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b)
		if _, ok := g.Link(na, nb); ok {
			continue
		}
		g.AddLink(na, nb, lab)
		added++
	}
	return g
}

// TestKShortestPathsProperties checks Yen's output on ring, grid and
// random topologies: loopless, valid, distinct, sorted by hop count, first
// entry identical to ShortestPath, and k=1 delegating to it exactly.
func TestKShortestPathsProperties(t *testing.T) {
	graphs := map[string]*Graph{
		"ring":   ringGraph(8),
		"grid":   gridGraph(4, 4),
		"random": randomGraph(12, 8, 42),
	}
	pairs := [][2]string{{"n0", "n5"}, {"n1", "n7"}, {"n2", "n3"}}
	for name, g := range graphs {
		for _, pr := range pairs {
			for _, k := range []int{1, 2, 3, 5} {
				paths, err := g.KShortestPaths(pr[0], pr[1], k)
				if err != nil {
					t.Fatalf("%s %v k=%d: %v", name, pr, k, err)
				}
				if len(paths) == 0 || len(paths) > k {
					t.Fatalf("%s %v k=%d: %d paths", name, pr, k, len(paths))
				}
				sp, _ := g.ShortestPath(pr[0], pr[1])
				if pathKey(paths[0]) != pathKey(sp) {
					t.Errorf("%s %v k=%d: first path %v != ShortestPath %v", name, pr, k, paths[0], sp)
				}
				seen := map[string]bool{}
				for i, p := range paths {
					if p[0] != pr[0] || p[len(p)-1] != pr[1] {
						t.Fatalf("%s %v: path %v has wrong endpoints", name, pr, p)
					}
					nodes := map[string]bool{}
					for j, nd := range p {
						if nodes[nd] {
							t.Errorf("%s %v: path %v revisits %s", name, pr, p, nd)
						}
						nodes[nd] = true
						if j+1 < len(p) {
							if _, ok := g.Link(p[j], p[j+1]); !ok {
								t.Errorf("%s %v: path %v uses missing link %s-%s", name, pr, p, p[j], p[j+1])
							}
						}
					}
					if seen[pathKey(p)] {
						t.Errorf("%s %v: duplicate path %v", name, pr, p)
					}
					seen[pathKey(p)] = true
					if i > 0 && len(p) < len(paths[i-1]) {
						t.Errorf("%s %v: paths not sorted by length: %v after %v", name, pr, p, paths[i-1])
					}
				}
				// Determinism: a second run returns the identical list.
				again, _ := g.KShortestPaths(pr[0], pr[1], k)
				if len(again) != len(paths) {
					t.Fatalf("%s %v k=%d: non-deterministic count", name, pr, k)
				}
				for i := range paths {
					if pathKey(again[i]) != pathKey(paths[i]) {
						t.Errorf("%s %v k=%d: non-deterministic path %d", name, pr, k, i)
					}
				}
			}
		}
	}
}

// A ring has exactly two loopless paths between any two nodes.
func TestKShortestPathsExhaustsRing(t *testing.T) {
	g := ringGraph(6)
	paths, err := g.KShortestPaths("n0", "n3", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("ring returned %d paths, want 2: %v", len(paths), paths)
	}
}

// TestModelWeightedConservation: under AllocModelWeighted, the modeled
// link-budget shares handed out on any link never exceed that link's
// budget — Σ over members of alloc/(deliver·maxLPR) ≤ 1 per link, at every
// point of an admit/release churn sequence.
func TestModelWeightedConservation(t *testing.T) {
	c := NewController(gridGraph(4, 4), hardware.Simulation())
	c.EnforceEER = true
	c.Policy = AllocModelWeighted

	check := func(stage string) {
		t.Helper()
		linkLoad := map[string]float64{}
		ids := make([]string, 0, len(c.members))
		for id := range c.members {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			m := c.members[id]
			alloc, ok := c.Allocation(id)
			if !ok {
				continue
			}
			frac := alloc / (m.deliver * m.maxLPR)
			for i := 0; i+1 < len(m.path); i++ {
				linkLoad[linkID(m.path[i], m.path[i+1])] += frac
			}
		}
		for link, load := range linkLoad {
			if load > 1+1e-9 {
				t.Fatalf("%s: link %s over budget: utilisation %v", stage, link, load)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	live := []string{}
	for step := 0; step < 60; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			c.Release(live[i])
			live = append(live[:i], live[i+1:]...)
			check(fmt.Sprintf("release step %d", step))
			continue
		}
		src := fmt.Sprintf("n%d", rng.Intn(16))
		dst := fmt.Sprintf("n%d", rng.Intn(16))
		if src == dst {
			continue
		}
		id := fmt.Sprintf("c%d", step)
		_, _, err := c.Place(PlacementRequest{ID: id, Src: src, Dst: dst, Fidelity: 0.8, Cutoff: CutoffShort, K: 3})
		if err != nil {
			continue // infeasible pair at this fidelity; not what we test
		}
		live = append(live, id)
		check(fmt.Sprintf("admit step %d", step))
	}
	if len(live) == 0 {
		t.Fatal("no circuits ever admitted; test exercised nothing")
	}
}

// TestPlaceProbeMatchesShortestPathPlan: a k=1 probe is exactly the
// shortest-path plan — ShortestPath, then planPath, then the prospective
// allocation when enforcing — bit for bit, under every allocation policy
// and with enforcement on or off.
func TestPlaceProbeMatchesShortestPathPlan(t *testing.T) {
	for _, policy := range []AllocationPolicy{AllocCountSplit, AllocStatic, AllocModelWeighted} {
		for _, enforce := range []bool{false, true} {
			c := NewController(dumbbell(), hardware.Simulation())
			c.EnforceEER = enforce
			c.Policy = policy
			c.Place(PlacementRequest{ID: "bg", Plan: &Plan{Path: []string{"A1", "MA", "MB", "B1"}, MaxLPR: 2000}})
			path, err := c.Graph.ShortestPath("A0", "B0")
			if err != nil {
				t.Fatal(err)
			}
			ref, err1 := c.planPath(path, 0.85, CutoffShort)
			if err1 == nil && enforce {
				ref.MaxEER = c.allocationFor(memberFor(ref, false), false)
			}
			dec, _, err2 := c.Place(PlacementRequest{Src: "A0", Dst: "B0", Fidelity: 0.85, Cutoff: CutoffShort, Probe: true})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("policy %v enforce %v: errors differ: %v vs %v", policy, enforce, err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(dec.Plan, ref) {
				t.Fatalf("policy %v enforce %v: probe plan %+v != shortest-path plan %+v", policy, enforce, dec.Plan, ref)
			}
			if dec.CandidateIndex != 0 || dec.Candidates != 1 {
				t.Fatalf("k=1 probe chose candidate %d of %d", dec.CandidateIndex, dec.Candidates)
			}
		}
	}
}

// TestPlaceReroutesAroundContention: on a ring with two equal-length sides,
// a loaded primary forces a MinEER demand onto the alternate candidate —
// and k=1 has no alternate, so the same demand is left under-allocated.
func TestPlaceReroutesAroundContention(t *testing.T) {
	c := NewController(ringGraph(6), hardware.Simulation())
	c.EnforceEER = true

	// Saturate the primary side with two circuits.
	first, _, err := c.Place(PlacementRequest{ID: "p1", Src: "n0", Dst: "n3", Fidelity: 0.8, Cutoff: CutoffShort})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Place(PlacementRequest{ID: "p2", Src: "n0", Dst: "n3", Fidelity: 0.8, Cutoff: CutoffShort}); err != nil {
		t.Fatal(err)
	}
	demand := first.Allocation / 2.5 // > a 3-way split, < a 2-way split

	probe1, _, err := c.Place(PlacementRequest{Src: "n0", Dst: "n3", Fidelity: 0.8, Cutoff: CutoffShort, MinEER: demand, K: 1, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	if probe1.Allocation >= demand {
		t.Fatalf("k=1 probe allocation %v unexpectedly meets demand %v", probe1.Allocation, demand)
	}
	probe2, _, err := c.Place(PlacementRequest{Src: "n0", Dst: "n3", Fidelity: 0.8, Cutoff: CutoffShort, MinEER: demand, K: 2, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	if probe2.CandidateIndex == 0 {
		t.Fatal("k=2 probe did not re-route off the loaded primary")
	}
	if probe2.Allocation < demand {
		t.Fatalf("re-routed allocation %v below demand %v", probe2.Allocation, demand)
	}
	if probe2.Candidates != 2 {
		t.Fatalf("ring probe scored %d candidates, want 2", probe2.Candidates)
	}
}

// TestNonEnforcingControllerNeverRefits: the EnforceEER=false controller
// tracks membership but must not produce re-fit traffic from any admission
// surface.
func TestNonEnforcingControllerNeverRefits(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	plan, err := probePlan(c, "A1", "B1", 0.85, CutoffShort)
	if err != nil {
		t.Fatal(err)
	}
	if _, r, _ := c.Place(PlacementRequest{ID: "b", Fixed: false, Plan: &plan}); len(r) != 0 {
		t.Fatalf("non-enforcing Place commit produced refits: %+v", r)
	}
	if _, r, _ := c.Place(PlacementRequest{ID: "c", Src: "A0", Dst: "B1", Fidelity: 0.85, Cutoff: CutoffShort}); len(r) != 0 {
		t.Fatalf("non-enforcing Place produced refits: %+v", r)
	}
	if r := c.Release("b"); len(r) != 0 {
		t.Fatalf("non-enforcing Release produced refits: %+v", r)
	}
}

// TestModelWeightedFavoursShortCircuits: under the model a 1-hop member
// sharing a link with a 3-hop member gets the larger end-to-end allocation
// (equal under count-split would hand both the same nominal rate).
func TestModelWeightedFavoursShortCircuits(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	c.EnforceEER = true
	c.Policy = AllocModelWeighted
	long, err := probePlan(c, "A0", "B0", 0.8, CutoffShort)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Place(PlacementRequest{ID: "long", Plan: &long}); err != nil {
		t.Fatal(err)
	}
	short, err := probePlan(c, "MA", "MB", 0.8, CutoffShort)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Place(PlacementRequest{ID: "short", Plan: &short}); err != nil {
		t.Fatal(err)
	}
	la, _ := c.Allocation("long")
	sa, _ := c.Allocation("short")
	if la <= 0 || sa <= 0 {
		t.Fatalf("allocations not populated: long %v short %v", la, sa)
	}
	if sa <= la {
		t.Errorf("model-weighted short-circuit allocation %v not above long-circuit %v", sa, la)
	}
}

package routing

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qnp/internal/asmcheck"
	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
)

func dumbbell() *Graph {
	g := NewGraph()
	for _, n := range []string{"A0", "A1", "MA", "MB", "B0", "B1"} {
		g.AddNode(n)
	}
	lab := hardware.LabLink()
	g.AddLink("A0", "MA", lab)
	g.AddLink("A1", "MA", lab)
	g.AddLink("MA", "MB", lab)
	g.AddLink("MB", "B0", lab)
	g.AddLink("MB", "B1", lab)
	return g
}

func TestShortestPathDumbbell(t *testing.T) {
	g := dumbbell()
	path, err := g.ShortestPath("A0", "B0")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A0", "MA", "MB", "B0"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if _, err := g.ShortestPath("A0", "nope"); err == nil {
		t.Error("unknown destination accepted")
	}
	// Deterministic repeated runs.
	p2, _ := g.ShortestPath("A0", "B0")
	for i := range path {
		if p2[i] != path[i] {
			t.Fatal("path not deterministic")
		}
	}
}

// probePlan runs a Place k=1 probe, the shortest-path plan these tests pin
// the budget math on (see TestPlaceProbeMatchesShortestPathPlan in
// placement_test.go).
func probePlan(c *Controller, src, dst string, f float64, policy CutoffPolicy) (Plan, error) {
	dec, _, err := c.Place(PlacementRequest{Src: src, Dst: dst, Fidelity: f, Cutoff: policy, Probe: true})
	return dec.Plan, err
}

// admitPath installs a bare path member through the Place commit form and
// returns the re-fits.
func admitPath(c *Controller, id string, path []string, maxLPR float64, fixed bool) []Refit {
	_, refits, err := c.Place(PlacementRequest{ID: id, Fixed: fixed, Plan: &Plan{Path: path, MaxLPR: maxLPR}})
	if err != nil {
		panic(err)
	}
	return refits
}

func TestNoPath(t *testing.T) {
	g := NewGraph()
	g.AddNode("x")
	g.AddNode("y")
	if _, err := g.ShortestPath("x", "y"); err == nil {
		t.Error("disconnected nodes produced a path")
	}
}

func TestProbePlanBudget(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	plan, err := probePlan(c, "A0", "B0", 0.8, CutoffLong)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Path) != 4 {
		t.Fatalf("path = %v", plan.Path)
	}
	// The link fidelity must exceed the end-to-end target (swaps and
	// decoherence only lose fidelity).
	if plan.LinkFidelity <= 0.8 {
		t.Errorf("link fidelity %v not above end-to-end 0.8", plan.LinkFidelity)
	}
	// And the worst case must meet the target.
	if plan.WorstCaseFidelity < 0.8-1e-6 {
		t.Errorf("worst case %v below target", plan.WorstCaseFidelity)
	}
	if plan.Cutoff <= 0 {
		t.Error("long cutoff policy produced no cutoff")
	}
	if plan.MaxLPR <= 0 || plan.LinkPairTime <= 0 {
		t.Error("rate fields not populated")
	}
}

func TestHigherTargetNeedsHigherLinkFidelity(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	p80, err1 := probePlan(c, "A0", "B0", 0.8, CutoffLong)
	p90, err2 := probePlan(c, "A0", "B0", 0.9, CutoffLong)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if p90.LinkFidelity <= p80.LinkFidelity {
		t.Errorf("link fidelity for F=0.9 (%v) not above F=0.8 (%v)", p90.LinkFidelity, p80.LinkFidelity)
	}
	// Higher fidelity pairs are slower.
	if p90.MaxLPR >= p80.MaxLPR {
		t.Errorf("LPR for F=0.9 (%v) not below F=0.8 (%v)", p90.MaxLPR, p80.MaxLPR)
	}
}

func TestLongerPathNeedsHigherLinkFidelity(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	short, err1 := probePlan(c, "MA", "MB", 0.8, CutoffLong) // 1 hop
	long, err2 := probePlan(c, "A0", "B0", 0.8, CutoffLong)  // 3 hops
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if long.LinkFidelity <= short.LinkFidelity {
		t.Errorf("3-hop link fidelity %v not above 1-hop %v", long.LinkFidelity, short.LinkFidelity)
	}
}

// The short cutoff allows a tighter decoherence bound, so the same
// end-to-end target needs lower link fidelities — the mechanism behind the
// rate improvement in Fig. 8(d-f).
func TestShortCutoffRelaxesLinkFidelity(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	long, err1 := probePlan(c, "A0", "B0", 0.85, CutoffLong)
	short, err2 := probePlan(c, "A0", "B0", 0.85, CutoffShort)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if short.Cutoff >= long.Cutoff {
		t.Errorf("short cutoff %v not below long cutoff %v", short.Cutoff, long.Cutoff)
	}
	if short.LinkFidelity > long.LinkFidelity {
		t.Errorf("short-cutoff link fidelity %v above long-cutoff %v", short.LinkFidelity, long.LinkFidelity)
	}
	if short.MaxLPR < long.MaxLPR {
		t.Errorf("short-cutoff LPR %v below long-cutoff %v", short.MaxLPR, long.MaxLPR)
	}
}

func TestUnreachableTargetRejected(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	if _, err := probePlan(c, "A0", "B0", 0.97, CutoffLong); err == nil {
		t.Error("impossible end-to-end fidelity accepted")
	}
}

func TestCutoffPolicies(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	none, _ := probePlan(c, "A0", "B0", 0.8, CutoffNone)
	if none.Cutoff != 0 {
		t.Error("CutoffNone produced a cutoff")
	}
	if CutoffNone.String() != "none" || CutoffLong.String() != "long" ||
		CutoffShort.String() != "short" {
		t.Error("policy strings wrong")
	}
}

// The long cutoff is defined by a 1.5% fidelity loss; verify the computed
// time indeed loses ≈1.5% under the storage lifetimes the controller ages
// with — electron on the simulation platform, carbon on the near-term one.
func TestLongCutoffCalibration(t *testing.T) {
	for _, p := range []hardware.Params{hardware.Simulation(), hardware.NearTerm()} {
		c := NewController(dumbbell(), p)
		curve := hardware.NewLinkCurve(hardware.LabLink(), p)
		_, peak := curve.Peak()
		linkF := math.Min(0.9, peak-0.01)
		cut := c.fidelityLossTime(linalg.NewWorkspace(), curve, linkF, 0.015)
		if cut <= 0 {
			t.Fatalf("%s: no cutoff computed", p.Name)
		}
		alpha, _ := curve.AlphaForFidelity(linkF)
		rho0 := curve.Model(alpha).StateW(nil, quantum.PsiPlus)
		lt := c.storageLifetimes()
		rho := quantum.DecohereW(nil, rho0, 0, 2, cut.Seconds(), lt.T1, lt.T2)
		rho = quantum.DecohereW(nil, rho, 1, 2, cut.Seconds(), lt.T1, lt.T2)
		lost := 1 - quantum.Fidelity(rho, quantum.PsiPlus)/quantum.Fidelity(rho0, quantum.PsiPlus)
		if math.Abs(lost-0.015) > 0.003 {
			t.Errorf("%s: fidelity loss at cutoff = %.4f, want ≈0.015", p.Name, lost)
		}
		if got := c.cutoffFor(linalg.NewWorkspace(), curve, linkF, CutoffLong); got != cut {
			t.Errorf("%s: long cutoff %v != fidelityLossTime %v", p.Name, got, cut)
		}
	}
}

func TestEnforceEERPopulatesBudget(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	c.EnforceEER = true
	plan, err := probePlan(c, "A0", "B0", 0.8, CutoffLong)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxEER <= 0 || plan.MaxEER > plan.MaxLPR {
		t.Errorf("MaxEER = %v with MaxLPR %v", plan.MaxEER, plan.MaxLPR)
	}
}

// TestRefitAllocations pins the §4.4 membership math: each link's budget
// (MaxLPR/2) splits equally across the circuits on the path's most
// contended link, admitPath/Release report exactly the members whose share
// changed (sorted), and fixed members occupy budget without being re-fit.
func TestRefitAllocations(t *testing.T) {
	c := NewController(dumbbell(), hardware.Simulation())
	c.EnforceEER = true
	plan, err := probePlan(c, "A0", "B0", 0.85, CutoffShort)
	if err != nil {
		t.Fatal(err)
	}
	full := plan.MaxLPR / 2
	if plan.MaxEER != full {
		t.Fatalf("uncontended allocation = %v, want MaxLPR/2 = %v", plan.MaxEER, full)
	}

	if refits := admitPath(c, "a", plan.Path, plan.MaxLPR, false); len(refits) != 0 {
		t.Fatalf("first admission re-fitted %v", refits)
	}
	if got, ok := c.Allocation("a"); !ok || got != full {
		t.Fatalf("Allocation(a) = %v, %v", got, ok)
	}

	// A second circuit over the MA-MB bottleneck halves both.
	plan2, err := probePlan(c, "A1", "B1", 0.85, CutoffShort)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.MaxEER != full/2 {
		t.Fatalf("prospective shared allocation = %v, want %v", plan2.MaxEER, full/2)
	}
	refits := admitPath(c, "b", plan2.Path, plan2.MaxLPR, false)
	if len(refits) != 1 || refits[0].Circuit != "a" || refits[0].MaxEER != full/2 {
		t.Fatalf("admitting b refits = %+v, want a at %v", refits, full/2)
	}

	// A fixed member (caller-chosen cap) dilutes shares but is never
	// re-fitted itself.
	plan3, _ := probePlan(c, "A0", "B1", 0.85, CutoffShort)
	refits = admitPath(c, "fixed", plan3.Path, plan3.MaxLPR, true)
	for _, r := range refits {
		if r.Circuit == "fixed" {
			t.Fatalf("fixed member re-fitted: %+v", refits)
		}
	}
	if _, ok := c.Allocation("fixed"); ok {
		t.Fatal("fixed member reports a re-fitted allocation")
	}
	if got, _ := c.Allocation("a"); got != full/3 {
		t.Fatalf("three-way share = %v, want %v", got, full/3)
	}

	// Departures restore the survivors, in sorted order.
	refits = c.Release("fixed")
	if len(refits) != 2 || refits[0].Circuit != "a" || refits[1].Circuit != "b" ||
		refits[0].MaxEER != full/2 || refits[1].MaxEER != full/2 {
		t.Fatalf("Release(fixed) refits = %+v", refits)
	}
	refits = c.Release("b")
	if len(refits) != 1 || refits[0].Circuit != "a" || refits[0].MaxEER != full {
		t.Fatalf("Release(b) refits = %+v", refits)
	}
	if refits := c.Release("b"); refits != nil {
		t.Fatalf("double Release returned %+v", refits)
	}

	// Static controllers never dilute.
	s := NewController(dumbbell(), hardware.Simulation())
	s.EnforceEER = true
	s.Policy = AllocStatic
	sp, _ := probePlan(s, "A0", "B0", 0.85, CutoffShort)
	admitPath(s, "a", sp.Path, sp.MaxLPR, false)
	sp2, _ := probePlan(s, "A1", "B1", 0.85, CutoffShort)
	if sp2.MaxEER != full {
		t.Fatalf("static prospective allocation = %v, want %v", sp2.MaxEER, full)
	}
	if refits := admitPath(s, "b", sp2.Path, sp2.MaxLPR, false); len(refits) != 0 {
		t.Fatalf("static admission re-fitted %v", refits)
	}
}

// scanShortestPath is the reference Dijkstra the queue-based search must
// reproduce: every step scans the unvisited nodes in sorted order for the
// strictly smallest distance.
func scanShortestPath(g *Graph, src, dst string, bannedNode, bannedLink map[string]bool) ([]string, bool) {
	dist := map[string]int{src: 0}
	prev := map[string]string{}
	visited := map[string]bool{}
	for {
		best, bestD := "", math.MaxInt
		var names []string
		for n := range dist {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if !visited[n] && dist[n] < bestD {
				best, bestD = n, dist[n]
			}
		}
		if best == "" {
			return nil, false
		}
		if best == dst {
			break
		}
		visited[best] = true
		for _, nb := range g.Neighbors(best) {
			if bannedNode[nb] || bannedLink[linkID(best, nb)] {
				continue
			}
			if d := bestD + 1; !visited[nb] {
				if old, ok := dist[nb]; !ok || d < old {
					dist[nb] = d
					prev[nb] = best
				}
			}
		}
	}
	var path []string
	for at := dst; ; at = prev[at] {
		path = append([]string{at}, path...)
		if at == src {
			return path, true
		}
	}
}

// TestShortestPathMatchesScanReference pins the search's tie-breaking:
// on grids and random graphs, with and without Yen-style bans, it returns
// exactly the reference scan's path (or fails exactly when it does).
func TestShortestPathMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for gi, g := range []*Graph{gridGraph(6, 5), randomGraph(30, 20, 5), ringGraph(12), dumbbell()} {
		nodes := g.Nodes()
		for trial := 0; trial < 200; trial++ {
			src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			bannedNode, bannedLink := map[string]bool{}, map[string]bool{}
			if trial%2 == 1 {
				for i := 0; i < 3; i++ {
					if n := nodes[rng.Intn(len(nodes))]; n != src {
						bannedNode[n] = true
					}
					a := nodes[rng.Intn(len(nodes))]
					if nbrs := g.Neighbors(a); len(nbrs) > 0 {
						bannedLink[linkID(a, nbrs[rng.Intn(len(nbrs))])] = true
					}
				}
			}
			want, wantOK := scanShortestPath(g, src, dst, bannedNode, bannedLink)
			got, err := g.shortestPathFiltered(src, dst, bannedNode, bannedLink)
			if (err == nil) != wantOK || !slices.Equal(got, want) {
				t.Fatalf("graph %d %s→%s bans %v %v: got %v (%v), reference %v", gi, src, dst, bannedNode, bannedLink, got, err, want)
			}
		}
	}
}

// TestNoFusedMultiplyAdd keeps the package's arm64 assembly free of fused
// multiply-adds (see asmcheck).
func TestNoFusedMultiplyAdd(t *testing.T) { asmcheck.NoFusedMultiplyAdd(t) }

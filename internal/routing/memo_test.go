package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/race"
	"qnp/internal/sim"
)

// chainGraph is a hops-long chain n0–…–n<hops> of identical links, except
// that a non-nil first overrides the n0–n1 link (a Config.LinkLengthM
// override in qnet terms).
func chainGraph(hops int, link hardware.LinkConfig, first *hardware.LinkConfig) *Graph {
	g := NewGraph()
	for i := 0; i <= hops; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < hops; i++ {
		cfg := link
		if i == 0 && first != nil {
			cfg = *first
		}
		g.AddLink(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), cfg)
	}
	return g
}

func chainPath(from, hops int) []string {
	path := make([]string, 0, hops+1)
	for i := from; i <= from+hops; i++ {
		path = append(path, fmt.Sprintf("n%d", i))
	}
	return path
}

// samePlan reports whether two plans are bit-identical field by field.
func samePlan(a, b Plan) bool {
	bits := math.Float64bits
	return slices.Equal(a.Path, b.Path) &&
		bits(a.LinkFidelity) == bits(b.LinkFidelity) &&
		a.Cutoff == b.Cutoff &&
		a.LinkPairTime == b.LinkPairTime &&
		bits(a.MaxLPR) == bits(b.MaxLPR) &&
		bits(a.MaxEER) == bits(b.MaxEER) &&
		bits(a.WorstCaseFidelity) == bits(b.WorstCaseFidelity) &&
		bits(a.EndToEndFidelity) == bits(b.EndToEndFidelity)
}

// checkAgainstFresh budgets path on the memoizing controller c twice (the
// miss, then the hit) and on a fresh controller over the same graph and
// params, and fails unless all three agree bit for bit and the plan's
// WorstCaseFidelity is the reference composition at its LinkFidelity.
func checkAgainstFresh(t *testing.T, c *Controller, path []string, f float64, policy CutoffPolicy, manual sim.Duration) Plan {
	t.Helper()
	fresh := NewController(c.Graph, c.Params)
	want, wantErr := fresh.planPath(path, f, policy, manual)
	if wantErr == nil {
		// The plan reports the composition at the link fidelity it chose.
		link, _ := c.Graph.Link(path[0], path[1])
		curve := hardware.NewLinkCurve(link, c.Params)
		wc := refWorstCase(c, curve, want.LinkFidelity, len(path)-1, policy, manual)
		if math.Float64bits(want.WorstCaseFidelity) != math.Float64bits(wc) {
			t.Fatalf("%s %v f=%v %v: WorstCaseFidelity %v, composition at LinkFidelity %v", c.Params.Name, path, f, policy, want.WorstCaseFidelity, wc)
		}
	}
	for pass := 0; pass < 2; pass++ {
		got, err := c.planPath(path, f, policy, manual)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %v f=%v %v pass %d: err %v, fresh %v", c.Params.Name, path, f, policy, pass, err, wantErr)
		}
		if !samePlan(got, want) {
			t.Fatalf("%s %v f=%v %v pass %d: plan %+v, fresh %+v", c.Params.Name, path, f, policy, pass, got, want)
		}
	}
	return want
}

// TestPlanBudgetMemoExact pins the budget memo as exact: a controller that
// reuses its budgets returns the same Plan, bit for bit, and the same error
// string as a fresh controller per call, over hop counts, cutoff rules,
// platforms, link lengths, unreachable targets, first-hop overrides and a
// mutated Controller.Params.
func TestPlanBudgetMemoExact(t *testing.T) {
	const maxHops = 8
	links := []hardware.LinkConfig{hardware.LabLink(), hardware.TelecomLink(25e3)}
	targets := []float64{0.5, 0.8, 0.9, 0.99}
	policies := []CutoffPolicy{CutoffLong, CutoffShort, CutoffNone, CutoffManual}
	hops := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		targets = []float64{0.8, 0.99}
		hops = []int{1, 3, 8}
	}
	for _, p := range []hardware.Params{hardware.Simulation(), hardware.NearTerm()} {
		for _, link := range links {
			c := NewController(chainGraph(maxHops, link, nil), p)
			for _, h := range hops {
				for _, policy := range policies {
					for _, f := range targets {
						checkAgainstFresh(t, c, chainPath(0, h), f, policy, 40*sim.Millisecond)
					}
				}
			}
			// Same hop count from a different start: a hit with the
			// caller's own path attached.
			checkAgainstFresh(t, c, chainPath(1, 3), 0.8, CutoffLong, 0)
		}
	}

	// A first-hop override is part of the key: paths starting on the
	// overridden link and on a default link budget differently.
	lab, tel := hardware.LabLink(), hardware.TelecomLink(2000)
	c := NewController(chainGraph(4, lab, &tel), hardware.Simulation())
	over := checkAgainstFresh(t, c, chainPath(0, 3), 0.8, CutoffShort, 0)
	plain := checkAgainstFresh(t, c, chainPath(1, 3), 0.8, CutoffShort, 0)
	if over.LinkPairTime == plain.LinkPairTime {
		t.Fatalf("first-hop override budgeted like the default link: %v", over.LinkPairTime)
	}

	// Mutating Controller.Params must not serve the old platform's budget.
	c = NewController(chainGraph(3, lab, nil), hardware.Simulation())
	sim3 := checkAgainstFresh(t, c, chainPath(0, 3), 0.8, CutoffLong, 0)
	c.Params = hardware.NearTerm()
	near3 := checkAgainstFresh(t, c, chainPath(0, 3), 0.8, CutoffLong, 0)
	if samePlan(sim3, near3) {
		t.Fatal("NearTerm params returned the Simulation budget")
	}
}

// TestPlanBudgetMissesPerHopCount drives city-shaped probes (random pairs,
// F=0.85, short cutoff, k=3) over a 10×10 grid: on uniform links the memo
// misses exactly once per distinct candidate hop count, feasible or not.
func TestPlanBudgetMissesPerHopCount(t *testing.T) {
	c := NewController(gridGraph(10, 10), hardware.Simulation())
	c.EnforceEER = true
	nodes := c.Graph.Nodes()
	rng := rand.New(rand.NewSource(1))
	hopCounts := map[int]bool{}
	probes := 60
	if testing.Short() {
		probes = 12
	}
	for i := 0; i < probes; i++ {
		src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if src == dst {
			continue
		}
		paths, err := c.Graph.KShortestPaths(src, dst, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			hopCounts[len(p)-1] = true
		}
		// Pairs whose every candidate is too long for the target are
		// unroutable, as in the city study; their errors are memoized too.
		c.Place(PlacementRequest{Src: src, Dst: dst, Fidelity: 0.85, Cutoff: CutoffShort, K: 3, Probe: true})
	}
	if len(c.budgets) != len(hopCounts) {
		t.Fatalf("%d budget misses for %d distinct hop counts", len(c.budgets), len(hopCounts))
	}
}

// TestAllocsPlanBudgetHit gates the memo hit path — the per-arrival cost
// of budgeting once the key has been seen — at zero allocations, for both a
// feasible budget and a memoized error.
func TestAllocsPlanBudgetHit(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	c := NewController(chainGraph(4, hardware.LabLink(), nil), hardware.Simulation())
	path := chainPath(0, 4)
	for _, f := range []float64{0.8, 0.99} {
		_, wantErr := c.planPath(path, f, CutoffLong, 0)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.planPath(path, f, CutoffLong, 0); err != wantErr {
				t.Fatalf("hit returned %v, want %v", err, wantErr)
			}
		})
		if allocs != 0 {
			t.Errorf("f=%v: budget hit allocates %v/op, want 0", f, allocs)
		}
	}
}

// refWorstCase is the worst-case composition as first written: a fresh
// aged pair per hop, allocating swaps. worstCase must match it bit for bit.
func refWorstCase(c *Controller, curve *hardware.LinkCurve, linkF float64, hops int, policy CutoffPolicy, manual sim.Duration) float64 {
	alpha, ok := curve.AlphaForFidelity(linkF)
	if !ok {
		return 0
	}
	wait := c.cutoffFor(nil, curve, linkF, policy, manual).Seconds()
	if wait <= 0 {
		if t, ok := curve.ExpectedPairTime(linkF); ok {
			wait = t.Seconds()
		}
	}
	lt := c.storageLifetimes()
	agedPair := func() *linalg.Matrix {
		rho := curve.Model(alpha).StateW(nil, quantum.PsiPlus)
		if c.Params.HasCarbon {
			pNoise := 1 - c.Params.Gates.TwoQubitFidelity*c.Params.Gates.CarbonInitFidelity
			rho = quantum.ApplyDepolarizing1W(nil, rho, pNoise, 0, 2)
		}
		rho = quantum.DecohereW(nil, rho, 0, 2, wait, lt.T1, lt.T2)
		return quantum.DecohereW(nil, rho, 1, 2, wait, lt.T1, lt.T2)
	}
	rng := rand.New(rand.NewSource(1))
	cur := agedPair()
	idx := quantum.PsiPlus
	for h := 1; h < hops; h++ {
		res := quantum.SwapW(nil, cur, agedPair(), quantum.SwapConfig{
			TwoQubitFidelity:    c.Params.Gates.TwoQubitFidelity,
			SingleQubitFidelity: c.Params.Gates.SingleQubitFidelity,
			Readout:             quantum.PerfectReadout,
		}, rng)
		idx = quantum.Combine(idx, quantum.PsiPlus, res.Outcome)
		cur = res.Rho
	}
	return quantum.Fidelity(cur, idx)
}

// TestWorstCaseMatchesReference pins the shared-aged-pair, workspace-backed
// composition to the per-hop reference on both platforms and every cutoff
// rule, so the memoized budgets are the budgets the controller always had.
func TestWorstCaseMatchesReference(t *testing.T) {
	ws := linalg.NewWorkspace()
	for _, p := range []hardware.Params{hardware.Simulation(), hardware.NearTerm()} {
		c := NewController(dumbbell(), p)
		curve := hardware.NewLinkCurve(hardware.LabLink(), p)
		_, peak := curve.Peak()
		for _, policy := range []CutoffPolicy{CutoffLong, CutoffShort, CutoffNone, CutoffManual} {
			for _, hops := range []int{1, 2, 4, 7} {
				for _, linkF := range []float64{0.6, 0.8, peak - 1e-3, peak + 1e-3} {
					want := refWorstCase(c, curve, linkF, hops, policy, 30*sim.Millisecond)
					got := c.worstCase(ws, curve, linkF, hops, policy, 30*sim.Millisecond)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %v hops=%d F=%v: worstCase %v, reference %v", p.Name, policy, hops, linkF, got, want)
					}
				}
			}
		}
	}
}

// refFidelityLossTime is fidelityLossTime as first written, allocating
// every state.
func refFidelityLossTime(c *Controller, curve *hardware.LinkCurve, linkF, fraction float64) sim.Duration {
	alpha, ok := curve.AlphaForFidelity(linkF)
	if !ok {
		return 0
	}
	lt := c.storageLifetimes()
	rho0 := curve.Model(alpha).StateW(nil, quantum.PsiPlus)
	f0 := quantum.Fidelity(rho0, quantum.PsiPlus)
	target := f0 * (1 - fraction)
	aged := func(t float64) float64 {
		rho := quantum.DecohereW(nil, rho0, 0, 2, t, lt.T1, lt.T2)
		rho = quantum.DecohereW(nil, rho, 1, 2, t, lt.T1, lt.T2)
		return quantum.Fidelity(rho, quantum.PsiPlus)
	}
	lo, hi := 0.0, 1.0
	for aged(hi) > target && hi < 1e5 {
		hi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if aged(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return sim.DurationFromSeconds(hi)
}

// TestFidelityLossTimeMatchesReference pins the workspace-backed long
// cutoff to the allocating reference on both platforms, reusing one warm
// workspace across every call.
func TestFidelityLossTimeMatchesReference(t *testing.T) {
	ws := linalg.NewWorkspace()
	for _, p := range []hardware.Params{hardware.Simulation(), hardware.NearTerm()} {
		c := NewController(dumbbell(), p)
		curve := hardware.NewLinkCurve(hardware.LabLink(), p)
		_, peak := curve.Peak()
		for _, linkF := range []float64{0.6, 0.8, 0.9, peak - 1e-3, peak + 1e-3} {
			for _, fraction := range []float64{0.005, 0.015, 0.1} {
				want := refFidelityLossTime(c, curve, linkF, fraction)
				if got := c.fidelityLossTime(ws, curve, linkF, fraction); got != want {
					t.Fatalf("%s F=%v fraction=%v: fidelityLossTime %v, reference %v", p.Name, linkF, fraction, got, want)
				}
			}
		}
	}
}

// TestSeed1ReplayMatchesFreshSource requires every replay of seed1Replay
// to read, through each rand.Rand method, what a fresh rand.New of
// rand.NewSource(1) reads, over replays that stop short of the recorded
// draws and replays that run past them.
func TestSeed1ReplayMatchesFreshSource(t *testing.T) {
	var replay seed1Replay
	got := rand.New(&replay)
	for pass, calls := range []int{3, 40, 7, 120, 0, 60} {
		replay.rewind()
		want := rand.New(rand.NewSource(1))
		for i := 0; i < calls; i++ {
			var g, w uint64
			switch i % 6 {
			case 0:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 1:
				g, w = uint64(got.Intn(7)), uint64(want.Intn(7))
			case 2:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 3:
				g, w = got.Uint64(), want.Uint64()
			case 4:
				g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
			case 5:
				g, w = uint64(got.Int31n(1<<30+3)), uint64(want.Int31n(1<<30+3))
			}
			if g != w {
				t.Fatalf("pass %d call %d: replay read %#x, fresh source %#x", pass, i, g, w)
			}
		}
	}
}

// Package routing implements the paper's evaluation routing protocol (§5):
// "a rudimentary algorithm that runs in a central controller and assumes all
// links and nodes are identical. It calculates a network path together with
// link fidelities as a function of end-to-end requirements by simulating the
// worst case scenario where every link-pair is swapped just before its
// cutoff timer pops."
//
// The worst-case simulation here is literal: candidate link fidelities are
// evaluated by ageing the hardware model's produced state for the cutoff
// interval on both qubits and composing noisy entanglement swaps with the
// same quantum engine the data plane uses, then bisecting for the smallest
// link fidelity that still meets the end-to-end target.
//
// That simulation reads nothing but the first-hop link, the hardware
// parameters, the hop count, the target and the cutoff rule, and it is
// deterministic (a fixed-seed RNG, no membership state), so each
// Controller memoizes the budget per distinct combination: the first
// circuit with a given key pays the ~33 density-matrix compositions and
// every later one gets the bit-identical Plan with its own path attached.
// Allocation (Plan.MaxEER) depends on live membership and is never cached.
//
// Beyond the paper, the controller places circuits rather than merely
// routing them: Place (the typed PlacementRequest/PlacementDecision API)
// enumerates up to K loopless candidate paths with Yen's algorithm, budgets
// each candidate with the worst-case simulation above, scores it by its
// modeled deliverable end-to-end rate against the current link membership,
// and — when admission control would reject a MinEER demand on the
// shortest path — falls back to the first candidate that can absorb it.
// Under admission control each link's pair-rate budget is divided among
// its member circuits by an AllocPolicy: equal count-split, model-weighted
// (proportional to each member's modeled deliverable rate), or frozen
// static halves.
package routing

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// CutoffPolicy selects how the controller sets the circuit's cutoff timer.
type CutoffPolicy int

// Cutoff policies from the evaluation section. The zero value is the
// paper's default policy.
const (
	// CutoffLong is the default: "the time it takes a link-pair to lose
	// approximately 1.5% of its initial fidelity".
	CutoffLong CutoffPolicy = iota
	// CutoffShort is §5.1's alternative: "the time it takes for a link to
	// have a 0.85 probability of generating a link-pair".
	CutoffShort
	// CutoffNone disables the cutoff — the oracle baseline of §5.2 runs
	// this way.
	CutoffNone
	// CutoffManual uses a hand-picked value (§5.3 near-term evaluation:
	// "we tune the cutoff timer to ensure we meet the end-to-end fidelity
	// threshold").
	CutoffManual
)

func (p CutoffPolicy) String() string {
	switch p {
	case CutoffNone:
		return "none"
	case CutoffLong:
		return "long"
	case CutoffShort:
		return "short"
	case CutoffManual:
		return "manual"
	}
	return "CutoffPolicy(?)"
}

// Graph is the controller's view of the network topology. Links carry their
// physical configuration; nodes are identified by name.
type Graph struct {
	nodes map[string]bool
	links map[string]map[string]hardware.LinkConfig
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{
		nodes: make(map[string]bool),
		links: make(map[string]map[string]hardware.LinkConfig),
	}
}

// AddNode registers a node.
func (g *Graph) AddNode(id string) { g.nodes[id] = true }

// AddLink registers a bidirectional link.
func (g *Graph) AddLink(a, b string, cfg hardware.LinkConfig) {
	if !g.nodes[a] || !g.nodes[b] {
		panic(fmt.Sprintf("routing: link %s-%s with unknown node", a, b))
	}
	if g.links[a] == nil {
		g.links[a] = make(map[string]hardware.LinkConfig)
	}
	if g.links[b] == nil {
		g.links[b] = make(map[string]hardware.LinkConfig)
	}
	g.links[a][b] = cfg
	g.links[b][a] = cfg
}

// Link returns the configuration of the a-b link.
func (g *Graph) Link(a, b string) (hardware.LinkConfig, bool) {
	cfg, ok := g.links[a][b]
	return cfg, ok
}

// Nodes returns every node name in sorted order.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Neighbors returns a node's adjacent nodes in sorted order.
func (g *Graph) Neighbors(id string) []string {
	out := make([]string, 0, len(g.links[id]))
	for n := range g.links[id] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LinkCount returns the number of (bidirectional) links.
func (g *Graph) LinkCount() int {
	total := 0
	for _, nbrs := range g.links {
		total += len(nbrs)
	}
	return total / 2
}

// ShortestPath runs Dijkstra with unit link costs (all links identical in
// the paper's evaluation), breaking ties deterministically by node name.
func (g *Graph) ShortestPath(src, dst string) ([]string, error) {
	if !g.nodes[src] || !g.nodes[dst] {
		return nil, fmt.Errorf("routing: unknown endpoint %q or %q", src, dst)
	}
	return g.shortestPathFiltered(src, dst, nil, nil)
}

// shortestPathFiltered is ShortestPath with banned nodes and banned
// (canonically keyed) links removed from the graph — the spur searches of
// Yen's algorithm. With nil bans it is exactly ShortestPath: the iteration
// and tie-break order are untouched, so public results cannot drift.
//
// Nodes are settled in (distance, name) order — the unvisited node with the
// smallest distance, ties to the smallest name — and a neighbour's
// predecessor is the first settled node that reached it at its final
// distance (neighbours are relaxed in sorted order, and only a strictly
// shorter distance replaces a predecessor).
func (g *Graph) shortestPathFiltered(src, dst string, bannedNode map[string]bool, bannedLink map[string]bool) ([]string, error) {
	dist := map[string]int{src: 0}
	prev := map[string]string{}
	visited := map[string]bool{}
	queue := &frontier{{src, 0}}
	for {
		if queue.Len() == 0 {
			return nil, fmt.Errorf("routing: no path %s→%s", src, dst)
		}
		top := heap.Pop(queue).(frontierEntry)
		best, bestD := top.node, top.dist
		if visited[best] || bestD != dist[best] {
			continue // superseded by a shorter entry
		}
		if best == dst {
			break
		}
		visited[best] = true
		var nbrs []string
		for nb := range g.links[best] {
			nbrs = append(nbrs, nb)
		}
		sort.Strings(nbrs)
		for _, nb := range nbrs {
			if bannedNode[nb] || bannedLink[linkID(best, nb)] {
				continue
			}
			if d := bestD + 1; !visited[nb] {
				if old, ok := dist[nb]; !ok || d < old {
					dist[nb] = d
					prev[nb] = best
					heap.Push(queue, frontierEntry{nb, d})
				}
			}
		}
	}
	var path []string
	for at := dst; ; at = prev[at] {
		path = append([]string{at}, path...)
		if at == src {
			return path, nil
		}
	}
}

// frontierEntry is one tentative distance in shortestPathFiltered's queue.
type frontierEntry struct {
	node string
	dist int
}

// frontier is a container/heap min-queue ordered by (dist, node).
type frontier []frontierEntry

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].dist != f[j].dist {
		return f[i].dist < f[j].dist
	}
	return f[i].node < f[j].node
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(frontierEntry)) }
func (f *frontier) Pop() any {
	old := *f
	x := old[len(old)-1]
	*f = old[:len(old)-1]
	return x
}

// Plan is the controller's output for one circuit: everything the
// signalling protocol needs to install it.
type Plan struct {
	Path []string
	// LinkFidelity is the minimum fidelity each link layer request asks for.
	LinkFidelity float64
	// Cutoff is the intermediate-node discard deadline (0 when disabled).
	Cutoff sim.Duration
	// LinkPairTime is the expected generation time of one link-pair.
	LinkPairTime sim.Duration
	// MaxLPR is the reserved link-pair rate on each link (pairs/s).
	MaxLPR float64
	// MaxEER is the circuit's end-to-end rate allocation (pairs/s);
	// 0 means no admission control (the paper's evaluation admits all).
	MaxEER float64
	// WorstCaseFidelity is the end-to-end fidelity of the worst-case
	// composition the plan was validated against.
	WorstCaseFidelity float64
	// EndToEndFidelity echoes the request.
	EndToEndFidelity float64
}

// Controller is the central routing controller.
type Controller struct {
	Graph  *Graph
	Params hardware.Params
	// EnforceEER enables admission control by populating Plan.MaxEER; the
	// paper's evaluation leaves it off ("we do not perform any resource
	// management").
	EnforceEER bool
	// Policy selects how link budget divides among the circuits sharing a
	// link; the zero value is the legacy count-split rule. See
	// AllocationPolicy.
	Policy AllocationPolicy

	// members tracks installed circuits for allocation accounting, keyed by
	// circuit ID; linkMembers indexes which members hold each link, so
	// share lookups are O(path length) and a membership change re-fits only
	// the members actually sharing a link with the changed path.
	members     map[string]member
	linkMembers map[string]map[string]bool
	// budgets memoizes planPath per budgetKey; see planPath.
	budgets map[budgetKey]budget
	// swapRNG feeds worstCase's swaps seed 1's stream from its start on
	// every call; seed1 replays it, so no call seeds a source.
	swapRNG *rand.Rand
	seed1   seed1Replay
}

// seed1Replay is a rand.Source64 that yields the stream of
// rand.NewSource(1) from its start after each rewind. Each value is drawn
// from a real seed-1 source once, the first time a replay reaches it, and
// kept. Int63 is Uint64 masked to 63 bits, as in that source, so every
// rand.Rand method reads the same values as on a fresh rand.New of it.
type seed1Replay struct {
	src   rand.Source64
	draws []uint64
	next  int
}

func (r *seed1Replay) rewind() { r.next = 0 }

func (r *seed1Replay) Uint64() uint64 {
	if r.next == len(r.draws) {
		if r.src == nil {
			r.src = rand.NewSource(1).(rand.Source64)
		}
		r.draws = append(r.draws, r.src.Uint64())
	}
	v := r.draws[r.next]
	r.next++
	return v
}

func (r *seed1Replay) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// Seed is not supported: the replay is of seed 1 only.
func (r *seed1Replay) Seed(int64) { panic("routing: seed1Replay cannot be reseeded") }

// Refit is one circuit's re-fitted allocation after a membership change.
type Refit struct {
	Circuit string
	MaxEER  float64
}

// NewController builds a controller over a topology with uniform hardware.
func NewController(g *Graph, p hardware.Params) *Controller {
	return &Controller{
		Graph:       g,
		Params:      p,
		members:     make(map[string]member),
		linkMembers: make(map[string]map[string]bool),
		budgets:     make(map[budgetKey]budget),
	}
}

// linkID canonically names the a-b link for membership counting.
func linkID(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// budgetKey is everything planPath reads to budget a path: the first-hop
// link and hardware (the controller assumes identical links), the hop
// count, the end-to-end target (keyed by its bits: the plan echoes it, so
// +0 and −0 must not share an entry) and the cutoff rule.
type budgetKey struct {
	link     hardware.LinkConfig
	params   hardware.Params
	hops     int
	fidelity uint64
	policy   CutoffPolicy
	manual   sim.Duration
}

// budget is one memoized planPath outcome: the plan without Path/MaxEER,
// or the error.
type budget struct {
	plan Plan
	err  error
}

// planPath computes the per-link fidelity budget for one concrete path:
// the smallest link fidelity whose worst-case end-to-end composition still
// meets the target, plus the cutoff and rate numbers derived from it. It
// never sets Plan.MaxEER — allocation is the placement layer's job. The
// budget is a pure function of budgetKey, so each distinct key is computed
// once per controller and later calls only attach the caller's path.
func (c *Controller) planPath(path []string, e2eFidelity float64, policy CutoffPolicy, manualCutoff sim.Duration) (Plan, error) {
	link, _ := c.Graph.Link(path[0], path[1])
	key := budgetKey{
		link:     link,
		params:   c.Params,
		hops:     len(path) - 1,
		fidelity: math.Float64bits(e2eFidelity),
		policy:   policy,
		manual:   manualCutoff,
	}
	b, ok := c.budgets[key]
	if !ok {
		b.plan, b.err = c.budgetFor(hardware.NewLinkCurve(link, c.Params), key.hops, e2eFidelity, policy, manualCutoff)
		c.budgets[key] = b
	}
	if b.err != nil {
		return Plan{}, b.err
	}
	plan := b.plan
	plan.Path = path
	return plan, nil
}

// budgetFor runs the worst-case bisection for a hops-long path of
// identical links with the given curve.
func (c *Controller) budgetFor(curve *hardware.LinkCurve, hops int, e2eFidelity float64, policy CutoffPolicy, manualCutoff sim.Duration) (Plan, error) {
	ws := linalg.NewWorkspace()
	_, maxF := curve.Peak()
	// Bisect the smallest link fidelity whose worst-case end-to-end
	// composition still meets the target; hiWC tracks the composition at
	// hi, which becomes the plan's WorstCaseFidelity.
	lo, hi := e2eFidelity, maxF
	hiWC := c.worstCase(ws, curve, hi, hops, policy, manualCutoff)
	if hiWC < e2eFidelity {
		return Plan{}, fmt.Errorf("routing: %d-hop path cannot reach end-to-end fidelity %.3f", hops, e2eFidelity)
	}
	if wc := c.worstCase(ws, curve, lo, hops, policy, manualCutoff); wc >= e2eFidelity {
		hi, hiWC = lo, wc
	} else {
		for i := 0; i < 30; i++ {
			mid := (lo + hi) / 2
			if wc := c.worstCase(ws, curve, mid, hops, policy, manualCutoff); wc >= e2eFidelity {
				hi, hiWC = mid, wc
			} else {
				lo = mid
			}
		}
	}
	linkF := hi
	pairTime, ok := curve.ExpectedPairTime(linkF)
	if !ok {
		return Plan{}, fmt.Errorf("routing: link cannot produce fidelity %.3f", linkF)
	}
	return Plan{
		LinkFidelity:      linkF,
		Cutoff:            c.cutoffFor(ws, curve, linkF, policy, manualCutoff),
		LinkPairTime:      pairTime,
		MaxLPR:            1 / pairTime.Seconds(),
		WorstCaseFidelity: hiWC,
		EndToEndFidelity:  e2eFidelity,
	}, nil
}

// cutoffFor computes the cutoff per policy for pairs of the given fidelity.
func (c *Controller) cutoffFor(ws *linalg.Workspace, curve *hardware.LinkCurve, linkF float64, policy CutoffPolicy, manual sim.Duration) sim.Duration {
	switch policy {
	case CutoffNone:
		return 0
	case CutoffManual:
		return manual
	case CutoffShort:
		// Time for 0.85 success probability: t = ln(1/0.15)/p attempts.
		alpha, ok := curve.AlphaForFidelity(linkF)
		if !ok {
			return 0
		}
		p := curve.Model(alpha).SuccessProb
		attempts := math.Log(1/0.15) / p
		return curve.CycleTime().Scale(attempts)
	default: // CutoffLong
		return c.fidelityLossTime(ws, curve, linkF, 0.015)
	}
}

// storageLifetimes returns the lifetimes governing idle pairs: carbon
// storage when the platform has it (§5.3 pairs are moved off the electron),
// otherwise the electron itself.
func (c *Controller) storageLifetimes() hardware.Lifetimes {
	if c.Params.HasCarbon {
		return c.Params.Carbon
	}
	return c.Params.Electron
}

// fidelityLossTime finds the idle time after which a fresh link-pair has
// lost the given fraction of its initial fidelity (both qubits decohering
// under the storage lifetimes).
func (c *Controller) fidelityLossTime(ws *linalg.Workspace, curve *hardware.LinkCurve, linkF, fraction float64) sim.Duration {
	alpha, ok := curve.AlphaForFidelity(linkF)
	if !ok {
		return 0
	}
	lt := c.storageLifetimes()
	rho0 := curve.Model(alpha).StateW(ws, quantum.PsiPlus)
	defer ws.Put(rho0)
	f0 := quantum.Fidelity(rho0, quantum.PsiPlus)
	target := f0 * (1 - fraction)
	aged := func(t float64) float64 {
		rho := decohereBoth(ws, rho0, t, lt)
		f := quantum.Fidelity(rho, quantum.PsiPlus)
		if rho != rho0 {
			ws.Put(rho)
		}
		return f
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

// decohereBoth ages both qubits of a pair for t seconds under lt. The
// result is rho itself when nothing decays; otherwise it is a fresh ws
// matrix and rho is untouched.
func decohereBoth(ws *linalg.Workspace, rho *linalg.Matrix, t float64, lt hardware.Lifetimes) *linalg.Matrix {
	one := quantum.DecohereW(ws, rho, 0, 2, t, lt.T1, lt.T2)
	both := quantum.DecohereW(ws, one, 1, 2, t, lt.T1, lt.T2)
	if one != rho && one != both {
		ws.Put(one)
	}
	return both
}

// worstCase composes the end-to-end fidelity assuming every link-pair ages
// for the full cutoff before its swap — the paper's conservative bound. With
// no cutoff the ageing interval falls back to the expected link-pair time
// (pairs wait about one generation interval for a partner on average).
func (c *Controller) worstCase(ws *linalg.Workspace, curve *hardware.LinkCurve, linkF float64, hops int, policy CutoffPolicy, manual sim.Duration) float64 {
	alpha, ok := curve.AlphaForFidelity(linkF)
	if !ok {
		return 0
	}
	wait := c.cutoffFor(ws, curve, linkF, policy, manual).Seconds()
	if wait <= 0 {
		if t, ok := curve.ExpectedPairTime(linkF); ok {
			wait = t.Seconds()
		}
	}
	// Every link-pair is produced and aged identically, and swaps leave
	// their inputs untouched, so one aged state serves every hop.
	lt := c.storageLifetimes()
	aged := curve.Model(alpha).StateW(ws, quantum.PsiPlus)
	if c.Params.HasCarbon {
		// The intermediate half is moved into carbon: two-qubit gate plus
		// carbon initialisation noise on one qubit.
		pNoise := 1 - c.Params.Gates.TwoQubitFidelity*c.Params.Gates.CarbonInitFidelity
		moved := quantum.ApplyDepolarizing1W(ws, aged, pNoise, 0, 2)
		ws.Put(aged)
		aged = moved
	}
	if next := decohereBoth(ws, aged, wait, lt); next != aged {
		ws.Put(aged)
		aged = next
	}
	// Deterministic composition with a fixed RNG: swap outcomes only select
	// which Bell state is declared, not how much fidelity survives, so any
	// outcome sequence gives the same worst-case number (verified in tests).
	if c.swapRNG == nil {
		c.swapRNG = rand.New(&c.seed1)
	}
	c.seed1.rewind()
	rng := c.swapRNG
	cfg := c.Params.SwapConfig()
	cfg.Readout = quantum.PerfectReadout
	cur := aged
	idx := quantum.PsiPlus
	for h := 1; h < hops; h++ {
		res := quantum.SwapW(ws, cur, aged, cfg, rng)
		if cur != aged {
			ws.Put(cur)
		}
		idx = quantum.Combine(idx, quantum.PsiPlus, res.Outcome)
		cur = res.Rho
	}
	f := quantum.Fidelity(cur, idx)
	if cur != aged {
		ws.Put(cur)
	}
	ws.Put(aged)
	return f
}

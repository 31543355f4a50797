// Circuit placement: the controller's admission-control surface. The
// legacy controller priced circuits (equal split of the most contended
// link's budget over the single shortest path); this layer makes it *place*
// them — k-shortest-path candidates scored by a per-circuit end-to-end
// throughput model against the current link membership, with re-routing to
// the next candidate when the primary cannot meet a MinEER demand.

package routing

import (
	"fmt"
	"math"
	"sort"
)

// AllocationPolicy selects how a link's reserved pair-rate budget divides
// among the circuits sharing it.
type AllocationPolicy int

const (
	// AllocCountSplit — the zero value and legacy default — splits the
	// budget equally among the circuits on the path's most contended link:
	// MaxLPR / (2 · share).
	AllocCountSplit AllocationPolicy = iota
	// AllocModelWeighted divides every link's budget in proportion to each
	// member's modeled end-to-end deliverable rate per unit of link budget
	// (worst-case swap survival × cutoff discard survival × worst-case
	// fidelity), then hands the circuit its bottleneck-link share converted
	// to a deliverable end-to-end rate. A long lossy circuit no longer
	// receives the same nominal rate as a one-hop neighbour.
	AllocModelWeighted
	// AllocStatic pins the original MaxLPR/2-per-circuit heuristic
	// regardless of membership (the pre-re-fit behaviour, kept for
	// comparison studies).
	AllocStatic
)

func (p AllocationPolicy) String() string {
	switch p {
	case AllocCountSplit:
		return "count-split"
	case AllocModelWeighted:
		return "model-weighted"
	case AllocStatic:
		return "static"
	}
	return "AllocationPolicy(?)"
}

// member is one installed circuit's allocation-relevant state. Fixed
// members (caller-overridden MaxEER, manual plans) occupy link budget but
// never receive re-fit updates.
type member struct {
	path   []string
	maxLPR float64
	fixed  bool
	// deliver is the modeled fraction of the circuit's reserved link-pair
	// rate that survives to an end-to-end delivery; weight is the
	// fidelity-weighted division key derived from it (see modelDeliver /
	// modelWeight).
	deliver float64
	weight  float64
}

// memberFor derives the allocation-relevant state from a plan. Members
// committed with a manual plan that carries only Plan{Path, MaxLPR} fall
// back to the base swap-pipeline discount.
func memberFor(plan Plan, fixed bool) member {
	d := modelDeliver(plan)
	return member{
		path:    append([]string(nil), plan.Path...),
		maxLPR:  plan.MaxLPR,
		fixed:   fixed,
		deliver: d,
		weight:  modelWeight(plan, d),
	}
}

// modelDeliver is the modeled fraction of the circuit's link-pair rate
// delivered end to end: the worst-case swap-pipeline survival discount
// (1/2, the same factor the legacy rule divides by) times the probability
// that a link-pair finds its swap partner before the cutoff pops at each
// intermediate node. Partner arrivals are modeled as exponential with the
// link's expected pair time, so a pair survives one cutoff window with
// probability 1 − exp(−Cutoff/LinkPairTime); a circuit with h hops crosses
// h−1 such windows.
func modelDeliver(p Plan) float64 {
	deliver := 0.5
	hops := len(p.Path) - 1
	if hops > 1 && p.Cutoff > 0 && p.LinkPairTime > 0 {
		keep := 1 - math.Exp(-p.Cutoff.Seconds()/p.LinkPairTime.Seconds())
		deliver *= math.Pow(keep, float64(hops-1))
	}
	return deliver
}

// modelWeight is the member's link-budget division key: its deliverable
// rate per unit of reserved link budget, weighted by the worst-case
// end-to-end fidelity the plan was validated against (fidelity-weighted
// throughput, after Shi & Qian). Plans that never computed a worst-case
// fidelity (manual installs) keep the bare deliver fraction.
func modelWeight(p Plan, deliver float64) float64 {
	if p.WorstCaseFidelity > 0 {
		return deliver * p.WorstCaseFidelity
	}
	return deliver
}

// countLinks adds (or removes) one member on every link of its path.
func (c *Controller) countLinks(id string, path []string, add bool) {
	for i := 0; i+1 < len(path); i++ {
		k := linkID(path[i], path[i+1])
		if add {
			if c.linkMembers[k] == nil {
				c.linkMembers[k] = make(map[string]bool)
			}
			c.linkMembers[k][id] = true
			continue
		}
		delete(c.linkMembers[k], id)
		if len(c.linkMembers[k]) == 0 {
			delete(c.linkMembers, k)
		}
	}
}

// sharing collects the members holding any link of path, excluding except —
// the only circuits whose allocation a change to this path can move.
func (c *Controller) sharing(path []string, except string) map[string]bool {
	out := make(map[string]bool)
	for i := 0; i+1 < len(path); i++ {
		for id := range c.linkMembers[linkID(path[i], path[i+1])] {
			if id != except {
				out[id] = true
			}
		}
	}
	return out
}

// linkShare is the membership of the path's most contended link. admitted
// says whether the path's own circuit is already indexed; a prospective
// candidate adds itself on top.
func (c *Controller) linkShare(path []string, admitted bool) int {
	maxShare := 1 // the circuit itself
	for i := 0; i+1 < len(path); i++ {
		share := len(c.linkMembers[linkID(path[i], path[i+1])])
		if !admitted {
			share++
		}
		if share > maxShare {
			maxShare = share
		}
	}
	return maxShare
}

// allocationFor is the admission-control rate allocation for the member
// under the controller's policy. admitted says whether the member is
// already indexed; a prospective candidate counts itself on top.
func (c *Controller) allocationFor(m member, admitted bool) float64 {
	switch c.Policy {
	case AllocStatic:
		return m.maxLPR / 2
	case AllocModelWeighted:
		return c.modelAllocation(m, admitted)
	default: // AllocCountSplit
		return m.maxLPR / (2 * float64(c.linkShare(m.path, admitted)))
	}
}

// modelAllocation is the model-weighted allocation: on every link of the
// member's path the budget divides in proportion to the holders' model
// weights; the member's sustainable share is its smallest (bottleneck)
// utilisation fraction, and its end-to-end allocation is that fraction of
// its reserved rate converted by its deliver factor. Per link the
// utilisation fractions sum to ≤ 1, so the division conserves every link's
// budget by construction (asserted by TestModelWeightedConservation).
// Member IDs are visited in sorted order so the float sums are
// reproducible across runs and shard layouts.
func (c *Controller) modelAllocation(m member, admitted bool) float64 {
	util := 1.0
	for i := 0; i+1 < len(m.path); i++ {
		k := linkID(m.path[i], m.path[i+1])
		ids := make([]string, 0, len(c.linkMembers[k]))
		for id := range c.linkMembers[k] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		sum := 0.0
		for _, id := range ids {
			sum += c.members[id].weight
		}
		if !admitted {
			sum += m.weight
		}
		if sum <= 0 {
			continue
		}
		if u := m.weight / sum; u < util {
			util = u
		}
	}
	return m.deliver * m.maxLPR * util
}

// PlacementRequest asks the controller to place one circuit. It has two
// forms:
//
//   - Planning (Plan == nil): Src/Dst/Fidelity describe the demand; the
//     controller enumerates up to K loopless candidate paths, budgets each,
//     scores them by modeled deliverable rate against the current
//     membership and picks the best candidate that can meet MinEER (the
//     re-route fallback). With Probe set nothing is installed — the
//     two-phase signalling flow probes at request time and commits at
//     CONFIRM time.
//   - Commit (Plan != nil): the already-budgeted plan from a prior probe is
//     installed under ID; no path search runs.
type PlacementRequest struct {
	// ID names the circuit for membership accounting. Required to install
	// (commit or non-probe planning); ignored by probes.
	ID string
	// Src and Dst are the circuit endpoints (planning form only).
	Src, Dst string
	// Fidelity is the end-to-end fidelity target.
	Fidelity float64
	// Cutoff selects the cutoff rule for budgeting.
	Cutoff CutoffPolicy
	// MinEER is the admission demand: when enforcing, candidates whose
	// prospective allocation falls short are skipped in favour of the next
	// one. 0 means no demand.
	MinEER float64
	// Fixed marks a caller-capped MaxEER: the member occupies link budget
	// but never receives re-fit updates and skips the MinEER fallback.
	Fixed bool
	// K is the number of loopless candidate paths to enumerate and score;
	// 0 or 1 places on the shortest path only (legacy behaviour).
	K int
	// Probe plans and scores without installing anything.
	Probe bool
	// Plan switches to the commit form.
	Plan *Plan
}

// PlacementDecision is the controller's answer to a PlacementRequest.
type PlacementDecision struct {
	// Plan is the budgeted plan for the chosen path. When the controller
	// enforces admission its MaxEER carries the prospective allocation.
	Plan Plan
	// CandidateIndex is the chosen path's index in the k-shortest-path
	// candidate list (0 = the shortest path; >0 means the circuit was
	// re-routed off its primary).
	CandidateIndex int
	// Candidates is the number of feasible candidates that were budgeted
	// and scored.
	Candidates int
	// ModelEER is the modeled deliverable end-to-end rate of the chosen
	// placement against the current membership (the placement score; it is
	// the allocation itself under AllocModelWeighted).
	ModelEER float64
	// Allocation is the prospective (probe/plan) or installed (commit)
	// MaxEER allocation; 0 when the controller does not enforce admission.
	Allocation float64
}

// Place is the controller's typed placement API. Planning requests
// return a decision and, unless
// Probe is set, install the circuit and return the other members'
// re-fitted allocations (sorted by circuit ID). Commit requests install a
// previously probed plan. Re-fits are only produced while EnforceEER is
// set — a non-enforcing controller tracks membership but never moves
// anyone's allocation.
func (c *Controller) Place(req PlacementRequest) (PlacementDecision, []Refit, error) {
	if req.Plan != nil {
		return c.commitPlacement(req)
	}
	dec, err := c.planPlacement(req)
	if err != nil {
		return PlacementDecision{}, nil, err
	}
	if req.Probe {
		return dec, nil, nil
	}
	creq := req
	creq.Plan = &dec.Plan
	cdec, refits, err := c.commitPlacement(creq)
	if err != nil {
		return PlacementDecision{}, nil, err
	}
	cdec.CandidateIndex = dec.CandidateIndex
	cdec.Candidates = dec.Candidates
	return cdec, refits, nil
}

// planPlacement budgets and scores up to K candidate paths and picks the
// placement. Candidates are ordered by score (modeled deliverable rate at
// current membership), ties broken toward the shorter/earlier candidate;
// when enforcing a MinEER demand, the best candidate whose prospective
// allocation meets the demand wins — re-routing around contention the
// shortest path cannot absorb. If none can, the best-scoring candidate is
// returned and the caller's admission check rejects it.
func (c *Controller) planPlacement(req PlacementRequest) (PlacementDecision, error) {
	k := req.K
	if k < 1 {
		k = 1
	}
	paths, err := c.Graph.KShortestPaths(req.Src, req.Dst, k)
	if err != nil {
		return PlacementDecision{}, err
	}
	type candidate struct {
		idx   int
		plan  Plan
		score float64
		alloc float64
	}
	var cands []candidate
	var firstErr error
	for i, p := range paths {
		plan, err := c.planPath(p, req.Fidelity, req.Cutoff)
		if err != nil {
			// Longer candidates can be infeasible at the fidelity target
			// even when the primary is fine; remember the first failure so
			// a fully infeasible request reports the shortest path's error.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m := memberFor(plan, req.Fixed)
		score := c.modelAllocation(m, false)
		alloc := 0.0
		if c.EnforceEER {
			alloc = c.allocationFor(m, false)
			plan.MaxEER = alloc
		}
		cands = append(cands, candidate{idx: i, plan: plan, score: score, alloc: alloc})
	}
	if len(cands) == 0 {
		return PlacementDecision{}, firstErr
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].idx < cands[b].idx
	})
	chosen := cands[0]
	if c.EnforceEER && req.MinEER > 0 && !req.Fixed {
		for _, cd := range cands {
			if cd.alloc >= req.MinEER {
				chosen = cd
				break
			}
		}
	}
	return PlacementDecision{
		Plan:           chosen.plan,
		CandidateIndex: chosen.idx,
		Candidates:     len(cands),
		ModelEER:       chosen.score,
		Allocation:     chosen.alloc,
	}, nil
}

// commitPlacement installs an already-budgeted plan under the request ID.
func (c *Controller) commitPlacement(req PlacementRequest) (PlacementDecision, []Refit, error) {
	if req.ID == "" {
		return PlacementDecision{}, nil, fmt.Errorf("routing: placement commit requires a circuit ID")
	}
	if len(req.Plan.Path) < 2 {
		return PlacementDecision{}, nil, fmt.Errorf("routing: placement commit requires a plan with a path")
	}
	m := memberFor(*req.Plan, req.Fixed)
	refits := c.admitMember(req.ID, m)
	dec := PlacementDecision{Plan: *req.Plan, ModelEER: c.modelAllocation(m, true)}
	if c.EnforceEER && !req.Fixed {
		dec.Allocation = c.allocationFor(m, true)
	} else {
		dec.Allocation = req.Plan.MaxEER
	}
	return dec, refits, nil
}

// admitMember installs (or re-installs) a member and re-fits the circuits
// its links touch.
func (c *Controller) admitMember(id string, m member) []Refit {
	affected := c.sharing(m.path, id)
	if old, ok := c.members[id]; ok {
		for a := range c.sharing(old.path, id) {
			affected[a] = true
		}
		c.countLinks(id, old.path, false)
	}
	before := c.snapshot(affected)
	c.members[id] = m
	c.countLinks(id, m.path, true)
	return c.refitChanged(before)
}

// Release removes a departing circuit and returns the re-fitted allocations
// of the survivors whose share grew, sorted by circuit ID.
func (c *Controller) Release(id string) []Refit {
	m, ok := c.members[id]
	if !ok {
		return nil
	}
	before := c.snapshot(c.sharing(m.path, id))
	delete(c.members, id)
	c.countLinks(id, m.path, false)
	return c.refitChanged(before)
}

// Allocation reports a tracked circuit's current re-fitted allocation
// (fixed members have no re-fitted allocation and report false).
func (c *Controller) Allocation(id string) (float64, bool) {
	m, ok := c.members[id]
	if !ok || m.fixed {
		return 0, false
	}
	return c.allocationFor(m, true), true
}

// MemberPath reports a tracked circuit's path (for signalling propagation).
func (c *Controller) MemberPath(id string) ([]string, bool) {
	m, ok := c.members[id]
	return m.path, ok
}

// snapshot records the current allocation of each listed re-fittable
// member (members off the changed path's links cannot move, so they are
// never snapshotted). A non-enforcing controller snapshots nothing: its
// members have no live allocation to move, so membership changes must not
// produce re-fit (UpdateMsg) traffic.
func (c *Controller) snapshot(ids map[string]bool) map[string]float64 {
	if !c.EnforceEER {
		return nil
	}
	out := make(map[string]float64, len(ids))
	for id := range ids {
		if m, ok := c.members[id]; ok && !m.fixed {
			out[id] = c.allocationFor(m, true)
		}
	}
	return out
}

// refitChanged diffs the snapshotted members' allocations against their
// values before the membership change.
func (c *Controller) refitChanged(before map[string]float64) []Refit {
	var out []Refit
	for id, prev := range before {
		m, ok := c.members[id]
		if !ok || m.fixed {
			continue
		}
		if alloc := c.allocationFor(m, true); alloc != prev {
			out = append(out, Refit{Circuit: id, MaxEER: alloc})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Circuit < out[j].Circuit })
	return out
}

// Package linklayer implements the link layer entanglement generation
// service of Dahlberg et al. (SIGCOMM'19) that the paper's QNP builds on
// (§3.5): a robust, batched, multiplexed pair-generation service on one
// physical link.
//
// The service contract the QNP needs (§3.5) is honoured exactly:
//
//  1. requests are keyed by a link-unique identifier (Label — the paper's
//     link-label / Purpose ID), delivered with every pair at both ends;
//  2. every pair carries an identifier unique within the request
//     (Correlator — the paper's Entanglement ID);
//  3. every delivery announces which Bell state the pair is in;
//  4. requests specify a minimum fidelity and a rate.
//
// Scheduling follows the paper's evaluation setup: a weighted round-robin
// (implemented as start-time fair queuing over link time) where each
// circuit's share of the link's time is proportional to its requested
// link-pair rate, independent of fidelity — "circuits get an equal share of
// the link's time regardless of fidelity".
package linklayer

import (
	"fmt"
	"math"

	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
	"qnp/internal/werner"
)

// Label identifies a virtual circuit's reservation on one link (the paper's
// link-label, with the same role as an MPLS label).
type Label string

// Correlator uniquely identifies a link-pair on its link (the paper's
// Entanglement ID / link-pair correlator: both ends can map it to the
// qubits in their local memory).
type Correlator struct {
	Link string
	Seq  uint64
}

func (c Correlator) String() string { return fmt.Sprintf("%s#%d", c.Link, c.Seq) }

// Delivery is handed to both endpoints when a link-pair is ready. Pair's
// state may be read while either endpoint still holds its half; a consumer
// that wants it after freeing its own half must copy it first, because the
// other endpoint's release returns it to the simulation's pool.
type Delivery struct {
	Label Label
	Corr  Correlator
	Pair  *device.Pair
	// Idx is the heralded Bell state (requirement 3 of §3.5).
	Idx quantum.BellIndex
	// ModelFidelity is the expected fidelity of the produced state at
	// generation time (before decoherence), from the hardware model.
	ModelFidelity float64
}

// Consumer receives pair deliveries at one endpoint.
type Consumer func(Delivery)

type request struct {
	label       Label
	minFidelity float64
	weight      float64    // requested link-pair rate (pairs/s), the WRR weight
	model       *linkModel // the link model producing minFidelity
	registered  [2]bool
	consumers   [2]Consumer
	// used is the virtual link time consumed, for fair queuing.
	used sim.Duration
	// paceRate, when positive, caps the request's absolute pair rate:
	// generation rounds keep a minimum spacing of 1/paceRate. Zero means
	// share-only scheduling (the default WRR behaviour). Shaped circuits
	// (admission-controlled EER) pace their head-end link this way — a WRR
	// weight only divides link time among competitors and cannot bound a
	// request's absolute rate on an otherwise idle link.
	paceRate    float64
	nextAllowed sim.Time
	// paceSetter is the endpoint index that last set a positive pace (-1:
	// none). The pace dies with its setter: when that side deactivates, the
	// cap is cleared, so a circuit re-established over the same label never
	// inherits a previous tenant's shaping.
	paceSetter int
}

func (r *request) active() bool { return r.registered[0] && r.registered[1] }

// round is a generation round in flight; req is nil while the engine idles.
type round struct {
	req    *request
	qubits [2]*device.Qubit
	event  sim.Event
	start  sim.Time
	k      int
}

// Stats aggregates per-engine counters.
type Stats struct {
	PairsDelivered uint64
	Attempts       uint64
	RoundsAborted  uint64
}

// Engine drives entanglement generation on one physical link. It is the
// shared physical substrate (emitters, midpoint heralding station) plus the
// link layer protocol instances at both endpoints.
type Engine struct {
	sim   *sim.Simulation
	name  string
	cfg   hardware.LinkConfig
	devs  [2]*device.Device
	reqs  map[Label]*request
	order []*request // deterministic scheduling order
	// cur is the engine's one round: a link runs at most one at a time.
	cur   round
	seq   uint64
	stats Stats
	// completeFn and dispatchFn are complete and dispatch bound once, so
	// scheduling them allocates nothing.
	completeFn, dispatchFn func()
	// exclusive serialises generation with local quantum operations — set on
	// single-communication-qubit platforms (near-term §5.3), where the
	// electron cannot generate while a gate runs.
	exclusive bool
	// retry wakes the dispatcher when an exclusivity wait expires.
	retry sim.Event
	// curve is the link's fidelity curve under the endpoints' hardware,
	// built on first use (see linkCurve).
	curve  *hardware.LinkCurve
	models map[float64]*linkModel
}

// linkModel is a memoized pair model and the states it produces: states[i]
// holds the entries of the state heralded as Ψ+ (i = 0) or Ψ− (i = 1),
// written by StateW on the first delivery that draws it (built[i]).
type linkModel struct {
	hardware.PairModel
	built  [2]bool
	states [2][16]complex128
}

// produce returns the produced state for heralded Bell index idx as a
// fresh ws matrix owned by the caller.
func (m *linkModel) produce(ws *linalg.Workspace, idx quantum.BellIndex) *linalg.Matrix {
	i := idx >> 1 // the phase bit: Ψ+ → 0, Ψ− → 1
	if !m.built[i] {
		rho := m.StateW(ws, idx)
		copy(m.states[i][:], rho.Data)
		m.built[i] = true
		return rho
	}
	rho := ws.GetRaw(4, 4)
	copy(rho.Data, m.states[i][:])
	return rho
}

// NewEngine creates the generation engine for the link between a and b.
// Both devices are assumed to have the same hardware parameter set, as in
// the paper's evaluation ("assumes all links and nodes are identical").
func NewEngine(s *sim.Simulation, name string, cfg hardware.LinkConfig, a, b *device.Device) *Engine {
	e := &Engine{
		sim:       s,
		name:      name,
		cfg:       cfg,
		devs:      [2]*device.Device{a, b},
		reqs:      make(map[Label]*request),
		models:    make(map[float64]*linkModel),
		exclusive: a.Params().HasCarbon,
	}
	e.completeFn, e.dispatchFn = e.complete, e.dispatch
	a.OnFree(e.dispatchFn)
	b.OnFree(e.dispatchFn)
	return e
}

// Stats returns generation counters.
func (e *Engine) Stats() Stats { return e.stats }

// side maps a node ID to this engine's endpoint index.
func (e *Engine) side(node string) int {
	for i, d := range e.devs {
		if d.ID() == node {
			return i
		}
	}
	panic(fmt.Sprintf("linklayer: node %q not on link %q", node, e.name))
}

// linkCurve returns the engine's fidelity curve, building it on first use:
// every circuit activation re-registers its labels, and a fresh curve per
// request would rescan the fidelity peak each time.
func (e *Engine) linkCurve() *hardware.LinkCurve {
	if e.curve == nil {
		e.curve = hardware.NewLinkCurve(e.cfg, e.devs[0].Params())
	}
	return e.curve
}

// modelFor returns the pair model producing fidelity f, or ok=false if the
// link cannot reach it. Models are memoized per fidelity: every circuit
// activation re-registers its labels.
func (e *Engine) modelFor(f float64) (m *linkModel, ok bool) {
	if m, ok = e.models[f]; ok {
		return m, true
	}
	curve := e.linkCurve()
	alpha, ok := curve.AlphaForFidelity(f)
	if !ok {
		return nil, false
	}
	m = &linkModel{PairModel: curve.Model(alpha)}
	e.models[f] = m
	return m, true
}

// Register activates (one side of) a continuous generation request. Pairs
// flow once both endpoints have registered the same label — the engine is
// the physical medium, and a link-pair needs participation from both nodes.
// Register returns an error if the link cannot reach the requested fidelity.
func (e *Engine) Register(node string, label Label, minFidelity, rate float64, c Consumer) error {
	s := e.side(node)
	r, ok := e.reqs[label]
	if !ok {
		model, achievable := e.modelFor(minFidelity)
		if !achievable {
			return fmt.Errorf("linklayer %s: fidelity %.4f unreachable", e.name, minFidelity)
		}
		r = &request{
			label:       label,
			minFidelity: minFidelity,
			weight:      rate,
			model:       model,
			used:        e.minVirtualUsed(rate),
			paceSetter:  -1,
		}
		e.reqs[label] = r
		e.order = append(e.order, r)
	}
	if r.minFidelity != minFidelity {
		return fmt.Errorf("linklayer %s: label %q registered with conflicting fidelity", e.name, label)
	}
	r.registered[s] = true
	r.consumers[s] = c
	e.dispatch()
	return nil
}

// minVirtualUsed gives a joining request the virtual time of the
// least-served active request so it cannot monopolise the link to "catch
// up" on time it never waited for.
func (e *Engine) minVirtualUsed(rate float64) sim.Duration {
	minV := math.Inf(1)
	for _, r := range e.order {
		if !r.active() || r.weight <= 0 {
			continue
		}
		if v := float64(r.used) / r.weight; v < minV {
			minV = v
		}
	}
	if math.IsInf(minV, 1) || rate <= 0 {
		return 0
	}
	return sim.Duration(minV * rate)
}

// UpdateRate changes a request's link-pair rate (weight).
func (e *Engine) UpdateRate(label Label, rate float64) {
	if r, ok := e.reqs[label]; ok {
		if r.weight > 0 && rate > 0 {
			// Preserve the virtual-time position under the new weight.
			r.used = sim.Duration(float64(r.used) / r.weight * rate)
		}
		r.weight = rate
	}
}

// SetPace caps a request's absolute link-pair rate (pairs/s); 0 removes the
// cap. Unlike the WRR weight — a relative share of link time — the pace is
// an absolute ceiling, honoured even when the link is otherwise idle. The
// cap is owned by the setting endpoint (the circuit's head-end) and is
// cleared when that endpoint deactivates.
func (e *Engine) SetPace(node string, label Label, pairsPerSec float64) {
	r, ok := e.reqs[label]
	if !ok {
		return
	}
	r.paceRate = pairsPerSec
	if pairsPerSec <= 0 {
		r.nextAllowed = 0
		r.paceSetter = -1
	} else {
		r.paceSetter = e.side(node)
	}
	e.dispatch()
}

// Paces maps every label that holds state on this engine (active or
// half-registered) to its absolute rate cap, 0 when uncapped.
//
//qnetlint:allow testonly qnet's churn tests check that teardown leaves no registration or pace cap behind
func (e *Engine) Paces() map[Label]float64 {
	m := make(map[Label]float64, len(e.reqs))
	for l, r := range e.reqs {
		m[l] = r.paceRate
	}
	return m
}

// Deactivate stops one side's participation. When the in-flight round
// belongs to a request that lost an endpoint, the round is aborted and its
// qubits are freed. Once both sides have deactivated, the request is
// removed.
func (e *Engine) Deactivate(node string, label Label) {
	r, ok := e.reqs[label]
	if !ok {
		return
	}
	s := e.side(node)
	r.registered[s] = false
	r.consumers[s] = nil
	if s == r.paceSetter {
		// The pace cap dies with the endpoint that set it: a later tenant of
		// this label (a re-established circuit) must not inherit shaping the
		// old head-end configured. The surviving side keeps generating only
		// once both ends re-register, at which point the new head re-asserts
		// its own pace (or none).
		r.paceRate = 0
		r.nextAllowed = 0
		r.paceSetter = -1
	}
	if e.cur.req == r {
		e.abortCurrent()
	}
	if !r.registered[0] && !r.registered[1] {
		delete(e.reqs, label)
		for i, rr := range e.order {
			if rr == r {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
	}
	e.dispatch()
}

func (e *Engine) abortCurrent() {
	cur := e.cur
	e.cur = round{}
	e.sim.Cancel(cur.event)
	// Attempts made before the abort still dephase stored qubits.
	elapsed := e.sim.Now().Sub(cur.start)
	k := int(elapsed / e.cfg.CycleTime(e.devs[0].Params()))
	if k > 0 {
		for _, d := range e.devs {
			d.ApplyAttemptDephasing(k)
		}
	}
	for i, q := range cur.qubits {
		e.devs[i].Free(q)
	}
	e.stats.RoundsAborted++
}

// dispatch starts a generation round if the engine is idle and some active
// request has memory available at both endpoints. Start-time fair queuing:
// among runnable requests, pick the one with the smallest weight-normalised
// virtual time used.
func (e *Engine) dispatch() {
	if e.cur.req != nil {
		return
	}
	e.sim.Cancel(e.retry)
	e.retry = sim.Event{}
	if e.exclusive {
		// The electron is also the gate qubit: wait out local operations.
		var until sim.Time
		for _, d := range e.devs {
			if bu := d.BusyUntil(); bu > until {
				until = bu
			}
		}
		if until > e.sim.Now() {
			e.retry = e.sim.ScheduleAt(until, e.dispatchFn)
			return
		}
	}
	if e.devs[0].FreeCommCount(e.name) == 0 || e.devs[1].FreeCommCount(e.name) == 0 {
		// Memory pressure: no request can run until a qubit frees. This is
		// the Fig. 8c regime — pairs parked in memory block the link.
		return
	}
	var best *request
	var bestV float64
	var wake sim.Time
	for _, r := range e.order {
		if !r.active() || r.weight <= 0 {
			continue
		}
		if r.paceRate > 0 && r.nextAllowed > e.sim.Now() {
			// Paced out: remember the earliest time a capped request frees.
			if wake == 0 || r.nextAllowed < wake {
				wake = r.nextAllowed
			}
			continue
		}
		v := float64(r.used) / r.weight
		if best == nil || v < bestV {
			best, bestV = r, v
		}
	}
	if best == nil {
		if wake > 0 {
			e.retry = e.sim.ScheduleAt(wake, e.dispatchFn)
		}
		return
	}
	q0, ok0 := e.devs[0].AllocComm(e.name)
	if !ok0 {
		return
	}
	q1, ok1 := e.devs[1].AllocComm(e.name)
	if !ok1 {
		e.devs[0].Free(q0)
		return
	}
	k := hardware.SampleAttempts(best.model.SuccessProb, e.sim.Rand())
	dur := e.cfg.CycleTime(e.devs[0].Params()).Scale(float64(k))
	e.cur = round{req: best, qubits: [2]*device.Qubit{q0, q1}, start: e.sim.Now(), k: k}
	e.cur.event = e.sim.Schedule(dur, e.completeFn)
}

// complete finishes a successful generation round: it charges the request's
// virtual time, applies per-attempt nuclear dephasing to stored qubits at
// both nodes, materialises the pair state, and delivers to both endpoints.
// It copies the round out before anything else: consumers re-enter dispatch,
// which starts the next round in e.cur.
func (e *Engine) complete() {
	cur := e.cur
	e.cur = round{}
	r := cur.req
	r.used += e.sim.Now().Sub(cur.start)
	if r.paceRate > 0 {
		r.nextAllowed = e.sim.Now().Add(sim.DurationFromSeconds(1 / r.paceRate))
	}
	e.stats.Attempts += uint64(cur.k)
	e.stats.PairsDelivered++
	for _, d := range e.devs {
		d.ApplyAttemptDephasing(cur.k)
	}
	model := r.model
	var pair *device.Pair
	var idx quantum.BellIndex
	if e.devs[0].Physics() == device.PhysicsWerner {
		// Scalar fast path: the produced state collapses to the model
		// fidelity's Werner equivalent; the herald draw matches Herald.
		var w float64
		w, idx = werner.Generate(model.Fidelity(), e.sim.Rand())
		pair = device.NewScalarPair(e.sim.Now(), w, idx, cur.qubits[0], cur.qubits[1])
	} else {
		idx = hardware.Herald(e.sim.Rand())
		rho := model.produce(e.sim.Workspace(), idx)
		pair = device.NewPair(e.sim.Now(), rho, idx, cur.qubits[0], cur.qubits[1])
	}
	corr := Correlator{Link: e.name, Seq: e.seq}
	e.seq++
	d := Delivery{
		Label:         r.label,
		Corr:          corr,
		Pair:          pair,
		Idx:           idx,
		ModelFidelity: model.Fidelity(),
	}
	// Deliver to both ends; consumers may free qubits or trigger swaps,
	// which re-enters dispatch via OnFree — that's fine, we're idle now.
	for s := 0; s < 2; s++ {
		if c := r.consumers[s]; c != nil {
			c(d)
		}
	}
	e.dispatch()
}

// Fabric is the registry of link engines, keyed by canonical link name.
type Fabric struct {
	engines map[string]*Engine
}

// NewFabric returns an empty link registry.
func NewFabric() *Fabric { return &Fabric{engines: make(map[string]*Engine)} }

// LinkName returns the canonical name for the link between two nodes.
func LinkName(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Add registers an engine.
func (f *Fabric) Add(e *Engine) {
	if _, ok := f.engines[e.name]; ok {
		panic(fmt.Sprintf("linklayer: duplicate engine %q", e.name))
	}
	f.engines[e.name] = e
}

// Between returns the engine for the a-b link.
func (f *Fabric) Between(a, b string) *Engine {
	e, ok := f.engines[LinkName(a, b)]
	if !ok {
		panic(fmt.Sprintf("linklayer: no engine for %s-%s", a, b))
	}
	return e
}

// All returns every engine (iteration order unspecified).
func (f *Fabric) All() map[string]*Engine { return f.engines }

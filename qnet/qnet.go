// Package qnet is the public API of the quantum network protocol library: a
// builder for simulated quantum networks running the full stack from the
// paper — NV-centre hardware model, link layer entanglement generation,
// the Quantum Network Protocol (QNP) data plane, routing controller and
// signalling protocol — plus a declarative scenario/workload API for
// driving and measuring multi-circuit traffic.
//
// A minimal session declares a Scenario — a topology, circuits, and the
// workloads that drive them — and reads the unified Metrics back:
//
//	res, err := qnet.Scenario{
//		Topology: qnet.ChainTopo(3), // Alice — repeater — Bob
//		Circuits: []qnet.CircuitSpec{{
//			ID: "vc1", Src: "n0", Dst: "n2", Fidelity: 0.8,
//			Workload:       qnet.KeepBatch{Count: 1, Pairs: 10},
//			RecordFidelity: true,
//		}},
//		Horizon: 10 * sim.Second,
//		WaitFor: []qnet.CircuitID{"vc1"},
//	}.Run()
//	cm := res.Metrics.Circuit("vc1")
//	// cm.Delivered, cm.Fidelities, cm.Requests[0].CompletedAt, ...
//
// Every run records its delivery times, request latencies and fidelities
// into mergeable constant-memory aggregates (CircuitMetrics.DeliveryAgg,
// LatencyAgg, FidelityAgg), which the summaries (MeanFidelity,
// Metrics.LatencySummary, FidelitySummary) read. Config.MetricsMode decides
// only whether the raw per-event records are kept as well: MetricsFull
// (the default) keeps them, MetricsStreaming drops them.
//
// Scenarios compose: several CircuitSpecs contend for the same links,
// endpoint selectors (DiameterPair, RandomPairs) derive circuits from the
// topology's shape, and pluggable workloads (ContinuousKeep, IntervalKeep,
// PoissonKeep, OnOffKeep, MeasureStream, ...) model traffic patterns.
// Circuits need not live for the whole run: CircuitSpec.ArriveAt/HoldFor
// (or the stochastic Arrival/Holding distributions) schedule arrivals and
// departures on the simulation clock — scheduled circuits establish
// asynchronously through the signalling plane, departures tear down via
// the idempotent Circuit.Teardown, and per-circuit lifetime stamps plus
// Metrics.TimeWeightedEER measure the dynamics. Under Config.EnforceEER
// the routing controller re-fits rate allocations to link membership as
// circuits join and leave (each link's budget splits across its circuits,
// propagated hop by hop so head-end pacing tracks membership); an arrival
// whose MinEER demand no longer fits is rejected at admission.
// Replicas are independent runs of the same Scenario value under
// runner.DeriveSeed seeds; a replica job that crosses a process boundary
// carries the parameters its scenario is built from, never the scenario
// itself (cmd/qnpsim sends its own scenario flags, internal/experiments
// its figure parameters), and the worker rebuilds the scenario with the
// same code.
//
// # Topologies
//
// Besides chains and the paper's dumbbell, generators build rings, stars,
// grids and seeded Waxman random graphs, all with uniform hardware unless
// Config.LinkLengthM overrides individual fibre lengths. Diameter picks
// the farthest endpoint pair, so a scenario can always ask for the
// topology's hardest circuit via the DiameterPair selector.
//
// # Physics engines
//
// Config.Physics selects how entangled-pair states are represented.
// PhysicsExact (the zero value) evolves 4×4 density matrices through the
// exact channel models in internal/quantum. PhysicsWerner tracks a single
// Werner parameter per pair with closed-form updates (internal/werner) —
// constant work per operation instead of matrix algebra, which is what
// makes city-scale scenarios fast. The closed forms are exact for
// Werner-form states (pinned to ≤1e-12 by property tests) and a bounded
// approximation otherwise; both engines consume identical RNG streams in
// identical order, so the event timeline, throughput, latency and
// admission behaviour do not change with the engine — only the oracle
// fidelity readouts, within the envelope the cross-engine CI suite gates.
//
// # Imperative core
//
// The scenario layer is sugar over the imperative builder, which remains
// available for applications that need full control:
//
//	net := qnet.Chain(qnet.DefaultConfig(), 3)
//	vc, err := net.Establish("vc1", "n0", "n2", 0.8, nil)
//	vc.HandleHead(qnet.Handlers{OnPair: func(d qnet.Delivered) { ... }})
//	vc.Submit(qnet.Request{ID: "r1", Type: qnet.Keep, NumPairs: 10})
//	net.Run(10 * sim.Second)
//
// HandleHead and HandleTail set the Handlers of the circuit's state at that
// end-node, which calls them directly for the circuit's deliveries. The
// application owns a delivered qubit only when OnPair is set and
// AutoConsume is false; otherwise the node frees it once OnPair returns,
// and also frees an EARLY hand-off whose chain expires or whose circuit is
// torn down. Ownership of an EARLY hand-off is settled when the qubit is
// handed over. Circuit.Teardown silences both ends at once.
//
// The experiment suite in internal/experiments (cmd/figures) reproduces
// every figure of the paper's evaluation on the scenario API, fanning the
// replica grid through internal/runner so figure output is bit-identical
// for any worker count.
package qnet

import (
	"errors"
	"fmt"
	"sort"

	"qnp/internal/core"
	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/routing"
	"qnp/internal/signaling"
	"qnp/internal/sim"
)

// Re-exported protocol types, so applications only import qnet (plus the
// sim and quantum leaf packages for time and measurement bases).
type (
	// Request is a QNP request (see core.Request).
	Request = core.Request
	// RequestID names a request.
	RequestID = core.RequestID
	// CircuitID names a virtual circuit.
	CircuitID = core.CircuitID
	// Delivered is an end-node delivery.
	Delivered = core.Delivered
	// RequestType selects KEEP / EARLY / MEASURE consumption.
	RequestType = core.RequestType
	// TestEstimate is a fidelity test-round report.
	TestEstimate = core.TestEstimate
	// CutoffPolicy selects the routing controller's cutoff rule.
	CutoffPolicy = routing.CutoffPolicy
	// AllocationPolicy selects how link budget divides among the circuits
	// sharing a link (see Config.Alloc).
	AllocationPolicy = routing.AllocationPolicy
	// Plan is the routing controller's circuit plan.
	Plan = routing.Plan
	// PlacementRequest asks the routing controller to place one circuit
	// (Controller.Place).
	PlacementRequest = routing.PlacementRequest
	// PlacementDecision is the controller's placement answer: chosen plan,
	// candidate index, modeled EER and allocation.
	PlacementDecision = routing.PlacementDecision
	// NodeStats are a QNP node's data-plane counters.
	NodeStats = core.NodeStats
	// Correlator identifies a link-pair / entanglement chain (§3.2).
	Correlator = linklayer.Correlator
	// Label identifies a circuit's reservation on one link (the paper's
	// link-label); the signalling protocol uses the circuit ID itself.
	Label = linklayer.Label
	// Physics selects the pair-state engine (see Config.Physics).
	Physics = device.Physics
	// Handlers are one end-node's application callbacks for a circuit,
	// installed with Circuit.HandleHead/HandleTail. The application owns a
	// delivered qubit only when OnPair is set and AutoConsume is false;
	// otherwise the node frees it after OnPair returns, and frees an EARLY
	// hand-off whose chain expires (after OnExpire) or whose circuit is
	// torn down (see core.Handlers).
	Handlers = core.Handlers
)

// Request consumption modes.
const (
	Keep    = core.Keep
	Early   = core.Early
	Measure = core.Measure
)

// Cutoff policies.
const (
	CutoffNone   = routing.CutoffNone
	CutoffLong   = routing.CutoffLong
	CutoffShort  = routing.CutoffShort
	CutoffManual = routing.CutoffManual
)

// Allocation policies (see Config.Alloc).
const (
	// AllocCountSplit — the default — splits a link's budget equally among
	// the circuits on the path's most contended link.
	AllocCountSplit = routing.AllocCountSplit
	// AllocModelWeighted divides link budget in proportion to each
	// circuit's modeled end-to-end deliverable rate (worst-case swap
	// survival, cutoff discards, fidelity budget).
	AllocModelWeighted = routing.AllocModelWeighted
	// AllocStatic pins the original MaxLPR/2-per-circuit heuristic.
	AllocStatic = routing.AllocStatic
)

// Physics engines (see Config.Physics).
const (
	// PhysicsExact tracks every pair as an exact 4×4 density matrix.
	PhysicsExact = device.PhysicsExact
	// PhysicsWerner tracks a single Werner parameter per pair — the scalar
	// fast path, validated against the exact engine in CI.
	PhysicsWerner = device.PhysicsWerner
)

// Config selects the hardware model and topology parameters. All links and
// nodes are identical, as in the paper's evaluation.
type Config struct {
	Seed   int64
	Params hardware.Params
	Link   hardware.LinkConfig
	// QubitsPerLinkEnd is the number of communication qubits each node
	// dedicates to each of its links (the paper's main evaluation uses 2).
	// Ignored when SharedCommQubits > 0.
	QubitsPerLinkEnd int
	// SharedCommQubits gives each node this many link-agnostic
	// communication qubits instead (the near-term platform has exactly 1).
	SharedCommQubits int
	// StorageQubits adds carbon storage qubits per node (near-term).
	StorageQubits int
	// LinkLengthM overrides the fibre length (in metres) of individual
	// links, keyed by LinkKey(a, b). Links without an entry use Link.LengthM
	// as before, so the paper's uniform evaluations are the zero value.
	LinkLengthM map[string]float64
	// EnforceEER turns on the routing controller's admission control: plans
	// carry a MaxEER allocation and the head-end polices/shapes requests
	// against it. The paper's evaluation leaves it off ("we do not perform
	// any resource management").
	EnforceEER bool
	// Alloc selects the admission allocation policy: AllocCountSplit (the
	// default) splits each link's budget equally among the circuits on the
	// path's most contended link, AllocModelWeighted divides it in
	// proportion to each circuit's modeled end-to-end deliverable rate, and
	// AllocStatic pins the original MaxLPR/2 heuristic. Re-fits on churn
	// propagate over the signalling plane as before. Only meaningful with
	// EnforceEER.
	Alloc AllocationPolicy
	// MetricsMode selects whether scenario metrics keep raw records. Both
	// modes record the same mergeable constant-memory aggregates. The zero
	// value, MetricsFull, also keeps every per-delivery and per-request
	// record; MetricsStreaming drops the records so a run's metrics memory
	// is independent of its delivery count (the city-scale setting).
	// Recording never feeds back into the simulation: both modes fire the
	// identical event sequence and produce identical counters and
	// summaries.
	MetricsMode MetricsMode
	// Physics selects the pair-state engine. The zero value, PhysicsExact,
	// tracks every entangled pair as a 4×4 density matrix through the exact
	// channel models; PhysicsWerner tracks a single Werner parameter per
	// pair with closed-form updates (internal/werner) — far faster on
	// swap-heavy scenarios, exact for Werner-form states and a bounded
	// approximation otherwise. Both engines consume identical RNG streams,
	// so switching engines never changes the event timeline, only the
	// fidelity values the oracle reports.
	Physics Physics
}

// LinkKey canonically names the a-b link for Config.LinkLengthM overrides.
func LinkKey(a, b string) string { return linklayer.LinkName(a, b) }

// DefaultConfig is the paper's main evaluation setup: idealised NV
// parameters, 2 m lab fibre, two communication qubits per link end.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Params:           hardware.Simulation(),
		Link:             hardware.LabLink(),
		QubitsPerLinkEnd: 2,
	}
}

// NearTermConfig is the §5.3 setup: near-term NV parameters, 25 km telecom
// fibre, a single shared communication qubit and carbon storage.
func NearTermConfig(lengthM float64) Config {
	return Config{
		Seed:             1,
		Params:           hardware.NearTerm(),
		Link:             hardware.TelecomLink(lengthM),
		SharedCommQubits: 1,
		StorageQubits:    4,
	}
}

// Network is a fully wired simulated quantum network.
type Network struct {
	Config     Config
	Sim        *sim.Simulation
	Classical  *netsim.Network
	Fabric     *linklayer.Fabric
	Graph      *routing.Graph
	Controller *routing.Controller

	devices  map[string]*device.Device
	nodes    map[string]*core.Node
	signaler *signaling.Signaler
	started  bool

	circuits map[CircuitID]*Circuit
}

// New creates an empty network; add nodes and links, then Start.
func New(cfg Config) *Network {
	if cfg.QubitsPerLinkEnd == 0 && cfg.SharedCommQubits == 0 {
		cfg.QubitsPerLinkEnd = 2
	}
	s := sim.New(cfg.Seed)
	n := &Network{
		Config:    cfg,
		Sim:       s,
		Classical: netsim.New(s),
		Fabric:    linklayer.NewFabric(),
		Graph:     routing.NewGraph(),
		devices:   make(map[string]*device.Device),
		nodes:     make(map[string]*core.Node),
		circuits:  make(map[CircuitID]*Circuit),
	}
	n.Controller = routing.NewController(n.Graph, cfg.Params)
	n.Controller.EnforceEER = cfg.EnforceEER
	n.Controller.Policy = cfg.Alloc
	return n
}

// AddNode registers a node.
func (n *Network) AddNode(id string) {
	if n.started {
		panic("qnet: AddNode after Start")
	}
	n.Classical.AddNode(netsim.NodeID(id))
	n.Graph.AddNode(id)
	dev := device.NewWithPhysics(n.Sim, id, n.Config.Params, n.Config.Physics)
	if n.Config.SharedCommQubits > 0 {
		dev.AddCommQubits("", n.Config.SharedCommQubits)
	}
	if n.Config.StorageQubits > 0 {
		dev.AddStorageQubits(n.Config.StorageQubits)
	}
	n.devices[id] = dev
}

// Connect joins two nodes with the configured link (quantum + classical),
// honouring any Config.LinkLengthM override for this link.
func (n *Network) Connect(a, b string) {
	if n.started {
		panic("qnet: Connect after Start")
	}
	name := linklayer.LinkName(a, b)
	link := n.Config.Link
	if m, ok := n.Config.LinkLengthM[name]; ok {
		link.LengthM = m
	}
	if n.Config.QubitsPerLinkEnd > 0 && n.Config.SharedCommQubits == 0 {
		n.devices[a].AddCommQubits(name, n.Config.QubitsPerLinkEnd)
		n.devices[b].AddCommQubits(name, n.Config.QubitsPerLinkEnd)
	}
	n.Classical.Connect(netsim.NodeID(a), netsim.NodeID(b), link.PropagationDelay())
	n.Fabric.Add(linklayer.NewEngine(n.Sim, name, link, n.devices[a], n.devices[b]))
	n.Graph.AddLink(a, b, link)
}

// Start freezes the topology and wires the protocol stack. Nodes are wired
// in sorted-ID order: iterating the devices map here would make core-node
// creation and classical-handler registration order vary between process
// runs, which is exactly the kind of hidden nondeterminism the simulator
// exists to exclude (see TestStartOrderDeterminism).
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	ids := make([]string, 0, len(n.devices))
	for id := range n.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	cores := make([]*core.Node, 0, len(ids))
	for _, id := range ids {
		node := core.NewNode(n.Sim, n.Classical, n.devices[id], n.Fabric)
		n.nodes[id] = node
		cores = append(cores, node)
	}
	n.signaler = signaling.New(n.Classical, cores)
}

// Node returns a node's QNP engine.
func (n *Network) Node(id string) *core.Node {
	node, ok := n.nodes[id]
	if !ok {
		panic(fmt.Sprintf("qnet: unknown node %q (did you Start()?)", id))
	}
	return node
}

// Device returns a node's quantum device.
func (n *Network) Device(id string) *device.Device { return n.devices[id] }

// Run advances the simulation by d.
func (n *Network) Run(d sim.Duration) { n.Sim.RunFor(d) }

// Chain builds a started linear network n0 — n1 — … — n{k−1}.
func Chain(cfg Config, k int) *Network {
	n := New(cfg)
	for i := 0; i < k; i++ {
		n.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i+1 < k; i++ {
		n.Connect(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	n.Start()
	return n
}

// Dumbbell builds the paper's Fig. 7 evaluation topology: end-nodes A0, A1,
// B0, B1 around the MA—MB bottleneck link.
func Dumbbell(cfg Config) *Network {
	n := New(cfg)
	for _, id := range []string{"A0", "A1", "MA", "MB", "B0", "B1"} {
		n.AddNode(id)
	}
	n.Connect("A0", "MA")
	n.Connect("A1", "MA")
	n.Connect("MA", "MB")
	n.Connect("MB", "B0")
	n.Connect("MB", "B1")
	n.Start()
	return n
}

// CircuitOptions tune circuit establishment.
type CircuitOptions struct {
	// Policy selects the cutoff rule; the default is CutoffLong.
	Policy CutoffPolicy
	// ManualCutoff is used with CutoffManual.
	ManualCutoff sim.Duration
	// MaxEER overrides the circuit's end-to-end rate allocation for
	// policing/shaping (0 = no admission control, as in the paper). An
	// overridden circuit is excluded from allocation re-fitting.
	MaxEER float64
	// MinEER is the circuit's rate demand at admission: under EnforceEER,
	// establishment fails with ErrAdmissionRejected when the controller's
	// (re-fitted) allocation falls below it. 0 admits unconditionally.
	MinEER float64
	// Candidates is the number of loopless candidate paths the controller
	// enumerates and scores for placement (k-shortest-path placement).
	// 0 or 1 places on the shortest path only, the legacy behaviour; with
	// more, a MinEER demand the shortest path cannot absorb re-routes to
	// the best alternate that can.
	Candidates int
}

// ErrAdmissionRejected marks an establishment refused by admission control:
// the re-fitted allocation the circuit would receive is below its MinEER
// demand. It is a protocol outcome, not an infrastructure failure; match it
// with errors.Is.
var ErrAdmissionRejected = errors.New("admission rejected: allocation below circuit demand")

// Circuit is an established virtual circuit.
type Circuit struct {
	ID   CircuitID
	Plan Plan
	// Placement is the controller's plan-time placement decision (candidate
	// index, modeled EER). Zero for manually installed plans.
	Placement PlacementDecision
	net       *Network
	torn      bool
}

// Establish plans a circuit with the routing controller, installs it via
// the signalling protocol, and advances the simulation just enough for the
// installation round trip to complete.
func (n *Network) Establish(id CircuitID, src, dst string, fidelity float64, opts *CircuitOptions) (*Circuit, error) {
	dec, o, err := n.planFor(src, dst, fidelity, opts)
	if err != nil {
		return nil, err
	}
	return n.establishSync(id, dec, o)
}

// EstablishAsync is Establish for callers inside a running simulation (a
// churn scenario's scheduled arrivals): the installation round trip rides
// the normal event flow instead of being stepped synchronously, and done
// fires with the live circuit when its CONFIRM returns. Planning and
// admission errors are reported synchronously through done before
// EstablishAsync returns.
func (n *Network) EstablishAsync(id CircuitID, src, dst string, fidelity float64, opts *CircuitOptions, done func(*Circuit, error)) {
	dec, o, err := n.planFor(src, dst, fidelity, opts)
	if err != nil {
		done(nil, err)
		return
	}
	n.establishDecisionAsync(id, dec, o, done)
}

// planFor probes the routing controller for a placement and applies the
// option overrides and the MinEER admission check. With Candidates > 1 the
// controller scores k loopless candidate paths and re-routes a demand the
// shortest path cannot absorb. It returns the options it applied (the zero
// value for nil opts).
func (n *Network) planFor(src, dst string, fidelity float64, opts *CircuitOptions) (PlacementDecision, CircuitOptions, error) {
	o := CircuitOptions{}
	if opts != nil {
		o = *opts
	}
	fixed := o.MaxEER > 0
	dec, _, err := n.Controller.Place(PlacementRequest{
		Src:          src,
		Dst:          dst,
		Fidelity:     fidelity,
		Cutoff:       o.Policy,
		ManualCutoff: o.ManualCutoff,
		MinEER:       o.MinEER,
		Fixed:        fixed,
		K:            o.Candidates,
		Probe:        true,
	})
	if err != nil {
		return PlacementDecision{}, o, err
	}
	if fixed {
		dec.Plan.MaxEER = o.MaxEER
	}
	// The demand check applies to overridden caps too: a circuit whose own
	// fixed allocation cannot carry its demand is rejected, not admitted
	// into permanent shaping.
	if o.MinEER > 0 && n.Controller.EnforceEER && dec.Plan.MaxEER < o.MinEER {
		return PlacementDecision{}, o, fmt.Errorf("qnet: circuit %s→%s needs %.2f pairs/s, allocation %.2f: %w",
			src, dst, o.MinEER, dec.Plan.MaxEER, ErrAdmissionRejected)
	}
	return dec, o, nil
}

// EstablishPlan installs a hand-built plan, bypassing the routing
// controller — the paper does exactly this for the near-term hardware
// evaluation ("as our routing protocol does not work well in this
// environment we manually populate the routing tables"). A manual plan's
// MaxEER is the caller's business: it never joins allocation re-fitting.
func (n *Network) EstablishPlan(id CircuitID, plan Plan) (*Circuit, error) {
	// The plan's MaxEER is caller-fixed, exactly as a CircuitOptions.MaxEER
	// override is.
	return n.establishSync(id, PlacementDecision{Plan: plan}, CircuitOptions{MaxEER: plan.MaxEER})
}

// establishSync installs a decision's plan and steps the simulation until
// the installation settles — the synchronous Establish/EstablishPlan tail.
func (n *Network) establishSync(id CircuitID, dec PlacementDecision, o CircuitOptions) (*Circuit, error) {
	var (
		circ    *Circuit
		err     error
		settled bool
	)
	n.establishDecisionAsync(id, dec, o, func(c *Circuit, e error) {
		circ, err, settled = c, e, true
	})
	// Drive the installation round trip (twice the path delay plus slack).
	// Stepping is bounded: only events at or before the deadline may fire,
	// so a failed confirm can never silently overshoot virtual time.
	deadline := n.Sim.Now().Add(n.Classical.PathDelay(toNodeIDs(dec.Plan.Path)).Scale(4) + sim.Millisecond)
	for !settled && n.Sim.StepUntil(deadline) {
	}
	if !settled {
		return nil, fmt.Errorf("qnet: circuit %q installation did not confirm", id)
	}
	return circ, err
}

// establishDecisionAsync installs a placement decision's plan without
// stepping the simulation; done fires when the CONFIRM returns to the
// head-end (or synchronously, with an error, if installation cannot
// start). A MaxEER option marks the allocation as caller-fixed, which
// re-fitting must not touch; MinEER is the circuit's admission demand,
// re-checked at CONFIRM time against the then-current membership.
func (n *Network) establishDecisionAsync(id CircuitID, dec PlacementDecision, o CircuitOptions, done func(*Circuit, error)) {
	fixed, minEER := o.MaxEER > 0, o.MinEER
	if !n.started {
		n.Start()
	}
	if _, dup := n.circuits[id]; dup {
		done(nil, fmt.Errorf("qnet: circuit %q already exists", id))
		return
	}
	plan := dec.Plan
	err := n.signaler.Establish(id, plan, func() {
		c := &Circuit{ID: id, Plan: plan, Placement: dec, net: n}
		n.circuits[id] = c
		// Joining may dilute the allocations of circuits sharing links with
		// this one: re-fit and propagate the members' new caps (§4.4).
		// Caller-fixed allocations join the membership (they occupy link
		// budget) but never receive re-fit updates.
		if n.Controller.EnforceEER && plan.MaxEER > 0 {
			_, refits, _ := n.Controller.Place(PlacementRequest{ID: string(id), Fixed: fixed, Plan: &plan})
			if alloc, ok := n.Controller.Allocation(string(id)); ok && !fixed {
				if minEER > 0 && alloc < minEER {
					// A racing arrival between planning and this CONFIRM
					// diluted the share below the circuit's demand: the
					// plan-time admission check no longer holds, so reject
					// now and roll the installation back. Teardown releases
					// the membership and re-propagates the survivors'
					// allocations, making the dilution (never propagated)
					// moot.
					c.Teardown()
					done(nil, fmt.Errorf("qnet: circuit %q allocation fell to %.2f below demand %.2f at confirm: %w",
						id, alloc, minEER, ErrAdmissionRejected))
					return
				}
				if alloc != plan.MaxEER {
					// True up this circuit's own installed entries to the
					// confirm-time share.
					c.Plan.MaxEER = alloc
					n.signaler.UpdateAllocation(id, plan.Path, alloc)
				}
			}
			for _, r := range refits {
				n.propagateRefit(r)
			}
		}
		done(c, nil)
	})
	if err != nil {
		done(nil, err)
	}
}

// propagateRefit pushes one re-fitted allocation along its circuit's path.
func (n *Network) propagateRefit(r routing.Refit) {
	if path, ok := n.Controller.MemberPath(r.Circuit); ok {
		n.signaler.UpdateAllocation(CircuitID(r.Circuit), path, r.MaxEER)
	}
}

func toNodeIDs(path []string) []netsim.NodeID {
	out := make([]netsim.NodeID, len(path))
	for i, p := range path {
		out[i] = netsim.NodeID(p)
	}
	return out
}

// Head returns the circuit's head-end QNP node.
func (c *Circuit) Head() *core.Node { return c.net.Node(c.Plan.Path[0]) }

// Tail returns the circuit's tail-end QNP node.
func (c *Circuit) Tail() *core.Node { return c.net.Node(c.Plan.Path[len(c.Plan.Path)-1]) }

// Submit sends a request to the circuit's head-end. The request's Circuit
// field is filled in automatically.
func (c *Circuit) Submit(req Request) error {
	req.Circuit = c.ID
	return c.Head().Submit(req)
}

// Cancel terminates an open-ended request.
func (c *Circuit) Cancel(id RequestID) error { return c.Head().Cancel(c.ID, id) }

// Teardown removes the circuit from the network: the head end uninstalls
// immediately, a TEARDOWN floods down the path, the handlers are dropped,
// and — under admission control — the freed link budget is re-fitted to the
// surviving circuits, propagated over the signalling plane so their SetPace
// caps track the new membership (§4.1/§4.4). The tail's handlers are
// cleared at once, although its circuit state lives until the TEARDOWN
// wave arrives: pairs it delivers in between reach no application and are
// freed. Teardown is idempotent: a second call (or a call racing a
// scenario-driven departure) is a no-op rather than a duplicate TEARDOWN
// flood, so it can never destroy a re-established circuit with the same
// ID.
func (c *Circuit) Teardown() {
	if c.torn || c.net.circuits[c.ID] != c {
		return
	}
	c.torn = true
	c.net.signaler.Teardown(c.ID, c.Plan)
	delete(c.net.circuits, c.ID)
	c.Tail().SetHandlers(c.ID, Handlers{})
	for _, r := range c.net.Controller.Release(string(c.ID)) {
		c.net.propagateRefit(r)
	}
}

// HandleHead installs handlers at the circuit's head-end.
func (c *Circuit) HandleHead(h Handlers) { c.Head().SetHandlers(c.ID, h) }

// HandleTail installs handlers at the circuit's tail-end.
func (c *Circuit) HandleTail(h Handlers) { c.Tail().SetHandlers(c.ID, h) }

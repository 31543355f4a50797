package qnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"qnp/internal/hardware"
	"qnp/internal/runner"
	"qnp/internal/sim"
)

// TopologyKind selects a built-in topology generator.
type TopologyKind int

// Built-in topology kinds.
const (
	TopoChain TopologyKind = iota
	TopoDumbbell
	TopoRing
	TopoStar
	TopoGrid
	TopoWaxman
	TopoCustom
)

// TopologySpec declares a scenario's network shape. The zero value is
// invalid; use the constructors (ChainTopo, DumbbellTopo, ...) or fill the
// fields for the chosen Kind. Per-link fibre lengths come from
// Config.LinkLengthM, so one spec expresses both uniform and heterogeneous
// plants.
type TopologySpec struct {
	Kind TopologyKind
	// Nodes sizes chains, rings, stars and Waxman graphs.
	Nodes int
	// Rows and Cols size grids.
	Rows, Cols int
	// Alpha and Beta are the Waxman parameters (0 = the customary 0.4).
	Alpha, Beta float64
	// Build constructs a started custom network (Kind TopoCustom).
	Build func(Config) *Network
}

// ChainTopo declares a k-node chain.
func ChainTopo(k int) TopologySpec { return TopologySpec{Kind: TopoChain, Nodes: k} }

// DumbbellTopo declares the paper's Fig. 7 dumbbell.
func DumbbellTopo() TopologySpec { return TopologySpec{Kind: TopoDumbbell} }

// RingTopo declares a k-node ring.
func RingTopo(k int) TopologySpec { return TopologySpec{Kind: TopoRing, Nodes: k} }

// StarTopo declares a k-node star (hub n0).
func StarTopo(k int) TopologySpec { return TopologySpec{Kind: TopoStar, Nodes: k} }

// GridTopo declares a rows×cols lattice.
func GridTopo(rows, cols int) TopologySpec {
	return TopologySpec{Kind: TopoGrid, Rows: rows, Cols: cols}
}

// WaxmanTopo declares a k-node Waxman random graph.
func WaxmanTopo(k int, alpha, beta float64) TopologySpec {
	return TopologySpec{Kind: TopoWaxman, Nodes: k, Alpha: alpha, Beta: beta}
}

// CustomTopo declares a hand-built topology; build must return a started
// network.
func CustomTopo(build func(Config) *Network) TopologySpec {
	return TopologySpec{Kind: TopoCustom, Build: build}
}

// materialize builds and starts the declared network.
func (t TopologySpec) materialize(cfg Config) (*Network, error) {
	switch t.Kind {
	case TopoChain:
		if t.Nodes < 2 {
			return nil, fmt.Errorf("qnet: chain topology needs ≥ 2 nodes (got %d)", t.Nodes)
		}
		return Chain(cfg, t.Nodes), nil
	case TopoDumbbell:
		return Dumbbell(cfg), nil
	case TopoRing:
		if t.Nodes < 3 {
			return nil, fmt.Errorf("qnet: ring topology needs ≥ 3 nodes (got %d)", t.Nodes)
		}
		return Ring(cfg, t.Nodes), nil
	case TopoStar:
		if t.Nodes < 2 {
			return nil, fmt.Errorf("qnet: star topology needs ≥ 2 nodes (got %d)", t.Nodes)
		}
		return Star(cfg, t.Nodes), nil
	case TopoGrid:
		if t.Rows < 1 || t.Cols < 1 || t.Rows*t.Cols < 2 {
			return nil, fmt.Errorf("qnet: grid topology needs ≥ 2 nodes (got %dx%d)", t.Rows, t.Cols)
		}
		return Grid(cfg, t.Rows, t.Cols), nil
	case TopoWaxman:
		if t.Nodes < 2 {
			return nil, fmt.Errorf("qnet: waxman topology needs ≥ 2 nodes (got %d)", t.Nodes)
		}
		return RandomGraph(cfg, t.Nodes, t.Alpha, t.Beta), nil
	case TopoCustom:
		if t.Build == nil {
			return nil, errors.New("qnet: custom topology without Build")
		}
		return t.Build(cfg), nil
	}
	return nil, fmt.Errorf("qnet: unknown topology kind %d", t.Kind)
}

// A Selector derives circuit endpoints from the materialized topology, so
// scenarios stay valid across shapes and seeds. The rng is the scenario's
// selection stream — deterministic per seed and disjoint from the physics
// stream. The built-in selectors (DiameterPair, RandomPairs) are plain
// data values, so scenarios using them serialize for process-sharded
// execution; ad-hoc logic can wrap a SelectorFunc instead, at the cost of
// shardability (unless the concrete type is registered via
// RegisterSelector).
type Selector interface {
	Pairs(net *Network, rng *rand.Rand) [][2]string
}

// SelectorFunc adapts a plain function to the Selector interface.
type SelectorFunc func(net *Network, rng *rand.Rand) [][2]string

// Pairs implements Selector.
func (f SelectorFunc) Pairs(net *Network, rng *rand.Rand) [][2]string { return f(net, rng) }

// diameterPair is the DiameterPair selector value.
type diameterPair struct{}

// DiameterPair selects the topology's farthest node pair — its hardest
// circuit.
func DiameterPair() Selector { return diameterPair{} }

// Pairs implements Selector.
func (diameterPair) Pairs(net *Network, _ *rand.Rand) [][2]string {
	src, dst, _ := net.Diameter()
	return [][2]string{{src, dst}}
}

// randomPairs is the RandomPairs selector value.
type randomPairs struct {
	K int
}

// RandomPairs selects k distinct unordered node pairs uniformly at random
// (clamped to the number of pairs the topology has).
func RandomPairs(k int) Selector { return randomPairs{K: k} }

// Pairs implements Selector.
func (s randomPairs) Pairs(net *Network, rng *rand.Rand) [][2]string {
	k := s.K
	ids := net.NodeIDs()
	if max := len(ids) * (len(ids) - 1) / 2; k > max {
		k = max
	}
	seen := make(map[[2]string]bool, k)
	out := make([][2]string, 0, k)
	for len(out) < k {
		i, j := rng.Intn(len(ids)), rng.Intn(len(ids))
		if i == j {
			continue
		}
		p := [2]string{ids[i], ids[j]}
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// CircuitSpec declares one circuit of a scenario: its endpoints (explicit,
// or derived by a Selector — which may expand the spec into several
// circuits), the end-to-end fidelity target and cutoff policy, the
// workload that drives it, and optional application handlers that ride on
// top of the scenario's metrics recording.
type CircuitSpec struct {
	// ID names the circuit (default c<i>). Selector expansions beyond one
	// pair get -<j> suffixes.
	ID CircuitID
	// Src and Dst are explicit endpoints; Select derives them instead.
	Src, Dst string
	Select   Selector
	// Fidelity is the end-to-end target handed to the routing controller.
	Fidelity float64
	// Policy and ManualCutoff select the cutoff rule (default CutoffLong).
	Policy       CutoffPolicy
	ManualCutoff sim.Duration
	// MaxEER overrides the circuit's end-to-end rate allocation for
	// policing/shaping (0 keeps the controller's allocation, which is
	// itself 0 unless Config.EnforceEER is on).
	MaxEER float64
	// Plan bypasses the routing controller with a hand-built plan — the
	// paper does this for the near-term evaluation (§5.3).
	Plan *Plan
	// ArriveAt schedules the circuit's arrival: instead of being installed
	// up front, it establishes on the simulation clock this long after
	// traffic opens (via the asynchronous signalling path, contending with
	// live traffic). 0 pre-installs as before.
	ArriveAt sim.Duration
	// HoldFor tears the circuit down this long after its traffic opens
	// (scenario-driven departure through Circuit.Teardown, triggering an
	// allocation re-fit for survivors under EnforceEER). 0 holds the
	// circuit to the end of the run.
	HoldFor sim.Duration
	// Arrival and Holding draw ArriveAt/HoldFor from a distribution
	// instead — e.g. Exponential arrival offsets and holding times give a
	// Poisson churn mix. Draws come from the scenario's dedicated churn
	// stream (one per configured field per expanded circuit, in expansion
	// order), never from the physics or workload streams.
	Arrival *Dist
	Holding *Dist
	// MinEER is the circuit's demand at admission: under EnforceEER, an
	// arrival whose re-fitted allocation falls below MinEER is rejected —
	// counted in Metrics.RejectedAtAdmission, not treated as a run error.
	MinEER float64
	// Candidates is the number of loopless candidate paths the controller
	// scores for placement (see CircuitOptions.Candidates). 0 or 1 places
	// on the shortest path only; with more, a MinEER demand the shortest
	// path cannot absorb re-routes to the best alternate that can, recorded
	// in CircuitMetrics.CandidateIndex.
	Candidates int
	// Workload drives requests; nil establishes an idle circuit.
	Workload Workload
	// Head and Tail are application callbacks layered over the metrics
	// recording. Handlers keep their AutoConsume semantics: a circuit
	// whose handlers do not take ownership of delivered qubits has them
	// freed automatically.
	Head, Tail Handlers
	// RecordFidelity records each delivery's exact pair fidelity and
	// declared Bell state in the metrics (costs one 4×4 fidelity
	// computation per delivery; never touches the physics random stream).
	RecordFidelity bool
	// Optional records establishment failure in the metrics instead of
	// failing the run — for sweeps over topologies where the routing
	// controller may find no feasible plan.
	Optional bool
}

// Scenario is the declarative experiment unit: a topology, circuits with
// workloads, and a run budget. Run executes it once on Config.Seed;
// RunReplicated fans independent replicas across a worker pool. The
// simulation event order is a pure function of the scenario value, so any
// result is reproducible from its seed.
type Scenario struct {
	Name string
	// Config selects hardware and seed; the zero value means
	// DefaultConfig() (with Seed kept if set).
	Config   Config
	Topology TopologySpec
	Circuits []CircuitSpec
	// Horizon bounds the traffic phase in virtual time (it excludes
	// circuit installation).
	Horizon sim.Duration
	// WaitFor stops the run as soon as the listed circuits have completed
	// every finite request submitted to them (the horizon still caps the
	// run). Open-ended requests never complete and are not waited for.
	WaitFor []CircuitID
	// Sequential brings circuits up one at a time — establish, handlers,
	// workload — so earlier circuits carry traffic while later ones
	// install, as in the paper's §5.2 runs. The default establishes all
	// circuits first, then opens traffic together.
	Sequential bool
	// ProcessingDelay is applied to every classical message once traffic
	// opens (the Fig. 10c knob); installation runs undelayed.
	ProcessingDelay sim.Duration
	// Setup, when set, is called with the started network before any
	// circuit establishes — the hook for handlers that need device or
	// clock access.
	Setup func(*Network)
	// Context, when non-nil, aborts the run loop early (partial metrics
	// are returned).
	Context context.Context
}

// Result is a single scenario run: the unified metrics plus the live
// network and circuits for post-run inspection.
type Result struct {
	Metrics *Metrics
	Net     *Network
	circs   map[CircuitID]*Circuit
}

// VC returns a live established circuit by ID (nil if unknown or failed).
func (r *Result) VC(id CircuitID) *Circuit { return r.circs[id] }

// effectiveConfig fills unset Config fields with the paper's defaults,
// field by field, so a scenario that sets only (say) a seed or a qubit
// count keeps everything else it declared.
func (sc Scenario) effectiveConfig() Config {
	cfg := sc.Config
	if cfg.Params == (hardware.Params{}) {
		cfg.Params = DefaultConfig().Params
	}
	if cfg.Link == (hardware.LinkConfig{}) {
		cfg.Link = DefaultConfig().Link
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// liveCircuit is the engine's per-circuit runtime state.
type liveCircuit struct {
	spec CircuitSpec
	id   CircuitID
	src  string
	dst  string
	vc   *Circuit
	cm   *CircuitMetrics
	ctx  *WorkloadContext
	// arriveAt/holdFor are the resolved churn values (spec fields, or the
	// per-circuit draws from the churn stream).
	arriveAt sim.Duration
	holdFor  sim.Duration
}

// runState carries the mutable engine state shared by the run loop and the
// churn event callbacks.
type runState struct {
	net *Network
	m   *Metrics
	res *Result
	// err records the first fatal failure raised from inside an event
	// callback (a non-optional arrival that could not establish, a workload
	// submission error); the run loop aborts on it.
	err error
}

// fail records the first fatal error; the run loop checks it between
// events.
func (eng *runState) fail(err error) {
	if eng.err == nil {
		eng.err = err
	}
}

// Run executes the scenario once and returns its metrics. Establishment
// errors fail the run unless the circuit is Optional (admission rejections
// under EnforceEER are never fatal — they are the studied outcome);
// workload submission errors always fail it. Error returns still carry
// well-formed partial metrics: Start/End and the network-wide counts are
// stamped on every path.
func (sc Scenario) Run() (*Result, error) {
	cfg := sc.effectiveConfig()
	net, err := sc.Topology.materialize(cfg)
	if err != nil {
		return nil, err
	}
	if sc.Setup != nil {
		sc.Setup(net)
	}
	m := &Metrics{Name: sc.Name, Mode: cfg.MetricsMode, byID: make(map[CircuitID]*CircuitMetrics)}
	res := &Result{Metrics: m, Net: net, circs: make(map[CircuitID]*Circuit)}
	eng := &runState{net: net, m: m, res: res}
	// fail stamps the window and counts before an error return, so partial
	// metrics from failed establishes are well-formed instead of
	// zero-valued.
	fail := func(err error) (*Result, error) {
		if m.Start == 0 {
			m.Start = net.Sim.Now()
		}
		m.End = net.Sim.Now()
		sc.finalize(net, m)
		return res, err
	}

	// Selector expansion draws from a selection stream derived from the
	// seed, and churn scheduling from a churn stream — never from the
	// simulation's physics stream, and on offsets disjoint from every
	// workload stream (see the stream-family constants in churn.go).
	selRand := rand.New(rand.NewSource(cfg.Seed*runner.SeedStride + selectionStreamOffset))
	churnRand := rand.New(rand.NewSource(cfg.Seed*runner.SeedStride + churnStreamOffset))
	var live []*liveCircuit
	for _, spec := range sc.Circuits {
		var pairs [][2]string
		switch {
		case spec.Plan != nil:
			p := spec.Plan.Path
			if len(p) < 2 {
				return fail(fmt.Errorf("qnet: scenario circuit %q: manual plan path too short", spec.ID))
			}
			pairs = [][2]string{{p[0], p[len(p)-1]}}
		case spec.Select != nil:
			pairs = spec.Select.Pairs(net, selRand)
		default:
			pairs = [][2]string{{spec.Src, spec.Dst}}
		}
		for j, p := range pairs {
			id := spec.ID
			if id == "" {
				id = CircuitID(fmt.Sprintf("c%d", len(live)))
			} else if len(pairs) > 1 {
				id = CircuitID(fmt.Sprintf("%s-%d", id, j))
			}
			if _, dup := m.byID[id]; dup {
				return fail(fmt.Errorf("qnet: scenario declares circuit %q twice", id))
			}
			cm := newCircuitMetrics(id, p[0], p[1], cfg.MetricsMode != MetricsStreaming)
			m.Circuits = append(m.Circuits, cm)
			m.byID[id] = cm
			lc := &liveCircuit{spec: spec, id: id, src: p[0], dst: p[1], cm: cm}
			lc.ctx = &WorkloadContext{
				Net:     net,
				Sim:     net.Sim,
				Rand:    rand.New(rand.NewSource(cfg.Seed*runner.SeedStride + workloadStreamOffset(len(live)))),
				Horizon: sc.Horizon,
				cm:      cm,
			}
			// Churn resolution: fixed offsets, overridden by per-circuit
			// draws from the churn stream (in expansion order — the draw
			// sequence is a pure function of the scenario value and seed).
			lc.arriveAt = spec.ArriveAt
			if spec.Arrival != nil {
				lc.arriveAt = spec.Arrival.draw(churnRand)
			}
			lc.holdFor = spec.HoldFor
			if spec.Holding != nil {
				lc.holdFor = spec.Holding.draw(churnRand)
			}
			live = append(live, lc)
		}
	}
	for _, id := range sc.WaitFor {
		if m.byID[id] == nil {
			return fail(fmt.Errorf("qnet: WaitFor names unknown circuit %q", id))
		}
	}

	// Pre-installed circuits establish before traffic opens; scheduled
	// (churn) arrivals establish on the simulation clock during the run.
	pre := make([]*liveCircuit, 0, len(live))
	var scheduled []*liveCircuit
	for _, lc := range live {
		if lc.arriveAt > 0 {
			scheduled = append(scheduled, lc)
		} else {
			pre = append(pre, lc)
		}
	}

	if sc.Sequential {
		// Bring-up interleaves with traffic: each circuit's workload opens
		// before the next circuit installs.
		for _, lc := range pre {
			if err := sc.establish(eng, lc); err != nil {
				return fail(err)
			}
			if lc.vc != nil {
				res.circs[lc.id] = lc.vc
			}
			sc.attach(lc)
			if lc.vc == nil || lc.spec.Workload == nil {
				continue
			}
			for _, req := range lc.spec.Workload.Immediate(lc.ctx) {
				if err := lc.ctx.Submit(req); err != nil {
					return fail(fmt.Errorf("qnet: scenario circuit %q: %w", lc.id, err))
				}
			}
			lc.spec.Workload.Start(lc.ctx)
		}
	} else {
		for _, lc := range pre {
			if err := sc.establish(eng, lc); err != nil {
				return fail(err)
			}
			if lc.vc != nil {
				res.circs[lc.id] = lc.vc
			}
		}
		for _, lc := range pre {
			sc.attach(lc)
		}
		// Immediate phase: breadth-first across circuits, so simultaneous
		// batches interleave like a round-robin submission loop.
		immediates := make([][]Request, len(pre))
		for i, lc := range pre {
			if lc.vc != nil && lc.spec.Workload != nil {
				immediates[i] = lc.spec.Workload.Immediate(lc.ctx)
			}
		}
		for k := 0; ; k++ {
			any := false
			for i, lc := range pre {
				if k < len(immediates[i]) {
					any = true
					if err := lc.ctx.Submit(immediates[i][k]); err != nil {
						return fail(fmt.Errorf("qnet: scenario circuit %q: %w", lc.id, err))
					}
				}
			}
			if !any {
				break
			}
		}
		for _, lc := range pre {
			if lc.vc != nil && lc.spec.Workload != nil {
				lc.spec.Workload.Start(lc.ctx)
			}
		}
	}

	if sc.ProcessingDelay > 0 {
		net.Classical.SetProcessingDelay(sc.ProcessingDelay)
	}

	t0 := net.Sim.Now()
	m.Start = t0

	// Churn scheduling: arrivals at t0+ArriveAt, departures HoldFor after a
	// circuit's traffic opens (for pre-installed circuits that is t0, the
	// instant every circuit's ctx.Start was pinned to).
	for _, lc := range scheduled {
		lc := lc
		lc.cm.PendingArrival = true
		net.Sim.ScheduleAt(t0.Add(lc.arriveAt), func() { sc.arrive(eng, lc) })
	}
	for _, lc := range pre {
		if lc.vc == nil || lc.holdFor <= 0 {
			continue
		}
		lc := lc
		at := lc.ctx.Start.Add(lc.holdFor)
		if at < t0 {
			at = t0
		}
		net.Sim.ScheduleAt(at, func() { sc.depart(eng, lc) })
	}

	deadline := t0.Add(sc.Horizon)
	ctx := sc.Context
	switch {
	case len(sc.WaitFor) > 0:
		// Early-stop runs step by step; like the experiment loops it
		// replaces, the final step may carry the clock past the horizon.
		for eng.err == nil && !m.waitSatisfied(sc.WaitFor) && net.Sim.Now() < deadline {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			if !net.Sim.Step() {
				break
			}
		}
	case ctx == nil && len(scheduled) == 0:
		net.Sim.RunUntil(deadline)
	default:
		// Stepped run: check for context cancellation and fatal churn
		// errors between events. Stepping fires the identical event
		// sequence RunUntil would, so results stay bit-identical.
		for eng.err == nil && (ctx == nil || ctx.Err() == nil) && net.Sim.StepUntil(deadline) {
		}
		if eng.err == nil && (ctx == nil || ctx.Err() == nil) {
			net.Sim.RunUntil(deadline) // pin the clock to the horizon
		}
	}
	if eng.err != nil {
		return fail(eng.err)
	}
	m.End = net.Sim.Now()
	sc.finalize(net, m)
	return res, nil
}

// finalize stamps the network-wide counters — on successful and failed
// runs alike.
func (sc Scenario) finalize(net *Network, m *Metrics) {
	m.Nodes = len(net.NodeIDs())
	m.Links = net.LinkCount()
	m.ClassicalMessages = net.Classical.Stats().MessagesSent
	m.NodeStats = make(map[string]NodeStats, m.Nodes)
	for _, id := range net.NodeIDs() {
		m.NodeStats[id] = net.Node(id).Stats()
	}
}

// arrive is a scheduled circuit's arrival event: plan, admission, and
// asynchronous installation riding the live event flow. Failures are
// recorded per-circuit; only non-optional, non-admission failures abort the
// run.
func (sc Scenario) arrive(eng *runState, lc *liveCircuit) {
	net := eng.net
	lc.cm.ArrivedAt = net.Sim.Now()
	done := func(vc *Circuit, err error) {
		lc.cm.PendingArrival = false
		if err != nil {
			lc.cm.Err = err.Error()
			if errors.Is(err, ErrAdmissionRejected) {
				lc.cm.AdmissionRejected = true
				eng.m.RejectedAtAdmission++
				return
			}
			if !lc.spec.Optional {
				eng.fail(fmt.Errorf("qnet: scenario circuit %q: %w", lc.id, err))
			}
			return
		}
		eng.m.Admitted++
		lc.vc = vc
		lc.ctx.Circuit = vc
		lc.cm.Established = true
		lc.cm.EstablishedAt = net.Sim.Now()
		lc.cm.Plan = vc.Plan
		lc.cm.Path = append([]string(nil), vc.Plan.Path...)
		lc.cm.CandidateIndex = vc.Placement.CandidateIndex
		eng.res.circs[lc.id] = vc
		sc.attach(lc)
		if lc.spec.Workload != nil {
			for _, req := range lc.spec.Workload.Immediate(lc.ctx) {
				if err := lc.ctx.Submit(req); err != nil {
					eng.fail(fmt.Errorf("qnet: scenario circuit %q: %w", lc.id, err))
					return
				}
			}
			lc.spec.Workload.Start(lc.ctx)
		}
		if lc.holdFor > 0 {
			net.Sim.Schedule(lc.holdFor, func() { sc.depart(eng, lc) })
		}
	}
	if lc.spec.Plan != nil {
		net.establishPlanAsync(lc.id, *lc.spec.Plan, true, 0, done)
		return
	}
	opts := &CircuitOptions{
		Policy:       lc.spec.Policy,
		ManualCutoff: lc.spec.ManualCutoff,
		MaxEER:       lc.spec.MaxEER,
		MinEER:       lc.spec.MinEER,
		Candidates:   lc.spec.Candidates,
	}
	net.EstablishAsync(lc.id, lc.src, lc.dst, lc.spec.Fidelity, opts, done)
}

// depart is the single scenario-driven departure path: the workload chain
// stops, the circuit tears down (idempotently — a duplicate event is a
// no-op), and the lifetime stamp is recorded.
func (sc Scenario) depart(eng *runState, lc *liveCircuit) {
	if lc.vc == nil || lc.cm.TornDownAt != 0 {
		return
	}
	lc.ctx.stopped = true
	lc.vc.Teardown()
	lc.cm.TornDownAt = eng.net.Sim.Now()
}

// establish installs one pre-traffic circuit (controller-planned or
// manual), stamping its lifetime fields and admission outcome.
func (sc Scenario) establish(eng *runState, lc *liveCircuit) error {
	net := eng.net
	lc.cm.ArrivedAt = net.Sim.Now()
	var vc *Circuit
	var err error
	if lc.spec.Plan != nil {
		vc, err = net.EstablishPlan(lc.id, *lc.spec.Plan)
	} else {
		opts := &CircuitOptions{
			Policy:       lc.spec.Policy,
			ManualCutoff: lc.spec.ManualCutoff,
			MaxEER:       lc.spec.MaxEER,
			MinEER:       lc.spec.MinEER,
			Candidates:   lc.spec.Candidates,
		}
		vc, err = net.Establish(lc.id, lc.src, lc.dst, lc.spec.Fidelity, opts)
	}
	if err != nil {
		lc.cm.Err = err.Error()
		if errors.Is(err, ErrAdmissionRejected) {
			lc.cm.AdmissionRejected = true
			eng.m.RejectedAtAdmission++
			return nil
		}
		if lc.spec.Optional {
			return nil
		}
		return fmt.Errorf("qnet: scenario circuit %q: %w", lc.id, err)
	}
	eng.m.Admitted++
	lc.vc = vc
	lc.ctx.Circuit = vc
	lc.ctx.Start = net.Sim.Now()
	lc.cm.Established = true
	lc.cm.EstablishedAt = net.Sim.Now()
	lc.cm.Plan = vc.Plan
	lc.cm.Path = append([]string(nil), vc.Plan.Path...)
	lc.cm.CandidateIndex = vc.Placement.CandidateIndex
	return nil
}

// attach layers the metrics recorder under the spec's application handlers
// at both ends. In non-sequential runs every circuit's traffic opens at
// the same instant, so Start is re-pinned when traffic begins.
func (sc Scenario) attach(lc *liveCircuit) {
	if lc.vc == nil {
		return
	}
	lc.ctx.Start = lc.ctx.Sim.Now()
	lc.vc.HandleHead(lc.headHandlers())
	lc.vc.HandleTail(lc.tailHandlers())
}

// headHandlers wraps the user's head-end handlers with metrics recording.
// AutoConsume keeps its dispatcher semantics: the pair is freed after the
// callback unless the user's handlers take ownership.
func (lc *liveCircuit) headHandlers() Handlers {
	user := lc.spec.Head
	cm := lc.cm
	record := lc.spec.RecordFidelity
	h := Handlers{
		AutoConsume: user.AutoConsume || user.OnPair == nil,
		OnPair: func(d Delivered) {
			f := 0.0
			if record && d.Pair != nil {
				f = d.Pair.FidelityWith(d.At, d.State)
			}
			cm.noteDelivery(d.At, record, f, d.State)
			if user.OnPair != nil {
				user.OnPair(d)
			}
		},
		OnComplete: func(id RequestID) {
			cm.noteComplete(id, lc.ctx.Sim.Now())
			if user.OnComplete != nil {
				user.OnComplete(id)
			}
		},
		OnReject: func(req Request, reason string) {
			cm.noteReject(req.ID)
			if user.OnReject != nil {
				user.OnReject(req, reason)
			}
		},
		OnExpire: func(id RequestID, corr Correlator) {
			cm.Expired++
			if user.OnExpire != nil {
				user.OnExpire(id, corr)
			}
		},
		OnEarlyPair: func(d Delivered) {
			cm.EarlyDelivered++
			if user.OnEarlyPair != nil {
				user.OnEarlyPair(d)
			}
		},
		OnTestEstimate: user.OnTestEstimate,
	}
	return h
}

// tailHandlers passes the user's tail handlers through, counting expiries
// and keeping the AutoConsume default.
func (lc *liveCircuit) tailHandlers() Handlers {
	user := lc.spec.Tail
	cm := lc.cm
	h := user
	h.AutoConsume = user.AutoConsume || user.OnPair == nil
	h.OnExpire = func(id RequestID, corr Correlator) {
		cm.Expired++
		if user.OnExpire != nil {
			user.OnExpire(id, corr)
		}
	}
	return h
}

// ReplicaOptions configure a replicated scenario run.
type ReplicaOptions struct {
	// Replicas is the number of independent runs (≥ 1).
	Replicas int
	// Workers caps the worker pool (0 = NumCPU); it never changes results.
	Workers int
	// Seed is the base seed: replica i runs the scenario with seed
	// runner.DeriveSeed(Seed, i), giving disjoint streams per replica.
	Seed int64
	// Progress, when non-nil, ticks after each replica completes.
	Progress func(done, total int)
	// Context, when non-nil, cancels remaining replicas; cancelled slots
	// are nil in the result.
	Context context.Context
	// Backend, when non-nil, executes replicas through the runner's
	// Backend seam instead of the in-process pool — a runner.Fleet
	// shards them across worker processes. The scenario must then be fully
	// declarative (see Scenario.Spec); replica seeding and result order are
	// backend-independent, so the metrics are bit-identical to an
	// in-process run for any backend, shard count or worker count.
	Backend runner.Backend
}

// RunReplicated fans independent replicas of the scenario across a worker
// pool and returns their metrics in replica order — bit-identical for any
// worker count (and, with a process-sharded Backend, any shard count). A
// replica that fails returns a Metrics with Err set rather than aborting
// its siblings.
func (sc Scenario) RunReplicated(o ReplicaOptions) ([]*Metrics, error) {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Backend != nil {
		return sc.runReplicatedOn(o)
	}
	ropts := runner.Options{Workers: o.Workers, Seed: o.Seed, Progress: o.Progress, Context: o.Context}
	return runner.Run(ropts, o.Replicas, func(_ int, seed int64) *Metrics {
		replica := sc
		replica.Config = sc.effectiveConfig()
		replica.Config.Seed = seed
		replica.Context = o.Context
		res, err := replica.Run()
		if err != nil {
			return &Metrics{Name: sc.Name, Err: err.Error()}
		}
		return res.Metrics
	})
}

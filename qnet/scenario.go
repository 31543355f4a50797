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

// TopologySpec declares a scenario's network shape: it builds and starts
// the network for cfg, or reports why the declared shape is invalid. Use
// the constructors (ChainTopo, DumbbellTopo, ...), or write one that returns
// a started network.
type TopologySpec func(cfg Config) (*Network, error)

// ChainTopo declares a k-node chain.
func ChainTopo(k int) TopologySpec {
	return func(cfg Config) (*Network, error) {
		if k < 2 {
			return nil, fmt.Errorf("qnet: chain topology needs ≥ 2 nodes (got %d)", k)
		}
		return Chain(cfg, k), nil
	}
}

// DumbbellTopo declares the paper's Fig. 7 dumbbell.
func DumbbellTopo() TopologySpec {
	return func(cfg Config) (*Network, error) { return Dumbbell(cfg), nil }
}

// RingTopo declares a k-node ring.
func RingTopo(k int) TopologySpec {
	return func(cfg Config) (*Network, error) {
		if k < 3 {
			return nil, fmt.Errorf("qnet: ring topology needs ≥ 3 nodes (got %d)", k)
		}
		return Ring(cfg, k), nil
	}
}

// StarTopo declares a k-node star (hub n0).
func StarTopo(k int) TopologySpec {
	return func(cfg Config) (*Network, error) {
		if k < 2 {
			return nil, fmt.Errorf("qnet: star topology needs ≥ 2 nodes (got %d)", k)
		}
		return Star(cfg, k), nil
	}
}

// GridTopo declares a rows×cols lattice.
func GridTopo(rows, cols int) TopologySpec {
	return func(cfg Config) (*Network, error) {
		if rows < 1 || cols < 1 || rows*cols < 2 {
			return nil, fmt.Errorf("qnet: grid topology needs ≥ 2 nodes (got %dx%d)", rows, cols)
		}
		return Grid(cfg, rows, cols), nil
	}
}

// WaxmanTopo declares a k-node Waxman random graph (alpha and beta 0 mean
// the customary 0.4).
func WaxmanTopo(k int, alpha, beta float64) TopologySpec {
	return func(cfg Config) (*Network, error) {
		if k < 2 {
			return nil, fmt.Errorf("qnet: waxman topology needs ≥ 2 nodes (got %d)", k)
		}
		return RandomGraph(cfg, k, alpha, beta), nil
	}
}

// A Selector derives circuit endpoints from the materialized topology, so
// scenarios stay valid across shapes and seeds. The rng is the scenario's
// selection stream — deterministic per seed and disjoint from the physics
// stream. A selector is code, not data: a replica in another process gets
// it by rebuilding the scenario from the parameters that chose it, as
// cmd/qnpsim does from its flags.
type Selector func(net *Network, rng *rand.Rand) [][2]string

// DiameterPair selects the topology's farthest node pair — its hardest
// circuit.
func DiameterPair() Selector {
	return func(net *Network, _ *rand.Rand) [][2]string {
		src, dst, _ := net.Diameter()
		return [][2]string{{src, dst}}
	}
}

// RandomPairs selects k distinct unordered node pairs uniformly at random
// (clamped to the number of pairs the topology has).
func RandomPairs(k int) Selector {
	return func(net *Network, rng *rand.Rand) [][2]string {
		ids := net.NodeIDs()
		k := min(k, len(ids)*(len(ids)-1)/2)
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
	// Policy selects the cutoff rule (default CutoffLong); a hand-picked
	// cutoff is a hand-built Plan.
	Policy CutoffPolicy
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
	//qnetlint:allow testonly qnpbench's replica reads it to tell churn-only scenarios
	ArriveAt sim.Duration
	// Arrival draws ArriveAt from a distribution instead, and Holding
	// draws how long after its traffic opens the circuit departs
	// (scenario-driven teardown through Circuit.Teardown, triggering an
	// allocation re-fit for survivors under EnforceEER); without Holding
	// the circuit holds to the end of the run. Exponential arrival offsets
	// and holding times give a Poisson churn mix. Draws come from the
	// scenario's dedicated churn stream (one per configured field per
	// expanded circuit, in expansion order), never from the physics or
	// workload streams.
	Arrival Dist
	Holding Dist
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
// workloads, and a run budget. Run executes it once on Config.Seed. The
// simulation event order is a pure function of the scenario value, so any
// result is reproducible from its seed: independent replicas are runs of
// the same value under runner.DeriveSeed seeds.
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
// network for post-run inspection.
type Result struct {
	Metrics *Metrics
	Net     *Network
}

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
	// arriveAt/holdFor are the resolved churn values (ArriveAt or the
	// per-circuit draws from the churn stream; 0 holds to the end).
	arriveAt sim.Duration
	holdFor  sim.Duration
}

// runState carries the mutable engine state shared by the run loop and the
// churn event callbacks.
type runState struct {
	net *Network
	m   *Metrics
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
	if sc.Topology == nil {
		return nil, errors.New("qnet: scenario declares no topology")
	}
	cfg := sc.effectiveConfig()
	net, err := sc.Topology(cfg)
	if err != nil {
		return nil, err
	}
	if sc.Setup != nil {
		sc.Setup(net)
	}
	m := &Metrics{Name: sc.Name, Mode: cfg.MetricsMode, byID: make(map[CircuitID]*CircuitMetrics)}
	res := &Result{Metrics: m, Net: net}
	eng := &runState{net: net, m: m}
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
			pairs = spec.Select(net, selRand)
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
				lc.arriveAt = spec.Arrival(churnRand)
			}
			if spec.Holding != nil {
				lc.holdFor = spec.Holding(churnRand)
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
			if err := sc.open(lc); err != nil {
				return fail(err)
			}
		}
	} else {
		for _, lc := range pre {
			if err := sc.establish(eng, lc); err != nil {
				return fail(err)
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

	// Churn scheduling: arrivals at t0+arriveAt, departures holdFor after a
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
		if err := eng.record(lc, vc, err); err != nil {
			eng.fail(err)
			return
		}
		if lc.vc == nil {
			return
		}
		if err := sc.open(lc); err != nil {
			eng.fail(err)
			return
		}
		if lc.holdFor > 0 {
			net.Sim.Schedule(lc.holdFor, func() { sc.depart(eng, lc) })
		}
	}
	if lc.spec.Plan != nil {
		// A manual plan's MaxEER is caller-fixed (see EstablishPlan).
		plan := *lc.spec.Plan
		net.establishDecisionAsync(lc.id, PlacementDecision{Plan: plan}, CircuitOptions{MaxEER: plan.MaxEER}, done)
		return
	}
	net.EstablishAsync(lc.id, lc.src, lc.dst, lc.spec.Fidelity, lc.spec.options(), done)
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
// manual) and records the outcome.
func (sc Scenario) establish(eng *runState, lc *liveCircuit) error {
	net := eng.net
	lc.cm.ArrivedAt = net.Sim.Now()
	var vc *Circuit
	var err error
	if lc.spec.Plan != nil {
		vc, err = net.EstablishPlan(lc.id, *lc.spec.Plan)
	} else {
		vc, err = net.Establish(lc.id, lc.src, lc.dst, lc.spec.Fidelity, lc.spec.options())
	}
	return eng.record(lc, vc, err)
}

// options are the establishment options the spec declares.
func (spec CircuitSpec) options() *CircuitOptions {
	return &CircuitOptions{
		Policy:     spec.Policy,
		MaxEER:     spec.MaxEER,
		MinEER:     spec.MinEER,
		Candidates: spec.Candidates,
	}
}

// record stamps a circuit's establishment outcome — pre-installed or
// arriving — into the metrics and, on success, makes the circuit live. It
// returns the error that must abort the run: nil on success, on admission
// rejection (the studied outcome) and on an Optional circuit's failure.
func (eng *runState) record(lc *liveCircuit, vc *Circuit, err error) error {
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
	lc.cm.Established = true
	lc.cm.EstablishedAt = eng.net.Sim.Now()
	lc.cm.Plan = vc.Plan
	lc.cm.Path = append([]string(nil), vc.Plan.Path...)
	lc.cm.CandidateIndex = vc.Placement.CandidateIndex
	return nil
}

// open starts a live circuit's traffic: the metrics recorder and handlers
// attach, the workload's immediate requests are submitted, then its own
// schedule starts. Non-sequential runs interleave the immediate requests
// of all pre-installed circuits instead (see Run).
func (sc Scenario) open(lc *liveCircuit) error {
	sc.attach(lc)
	if lc.vc == nil || lc.spec.Workload == nil {
		return nil
	}
	for _, req := range lc.spec.Workload.Immediate(lc.ctx) {
		if err := lc.ctx.Submit(req); err != nil {
			return fmt.Errorf("qnet: scenario circuit %q: %w", lc.id, err)
		}
	}
	lc.spec.Workload.Start(lc.ctx)
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
// The wrapper always sets OnPair, so it keeps the user's ownership through
// AutoConsume: the pair is freed after the callback unless the user's
// handlers take ownership.
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

// tailHandlers passes the user's tail handlers through, counting expiries.
// Qubit ownership is the user's handlers' own: OnPair stays theirs.
func (lc *liveCircuit) tailHandlers() Handlers {
	user := lc.spec.Tail
	cm := lc.cm
	h := user
	h.OnExpire = func(id RequestID, corr Correlator) {
		cm.Expired++
		if user.OnExpire != nil {
			user.OnExpire(id, corr)
		}
	}
	return h
}

package qnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"

	"qnp/internal/runner"
	"qnp/internal/sim"
)

// This file is the serializable job layer under Scenario: ScenarioSpec is
// the JSON wire form of a declarative scenario, complete enough that a
// worker process holding only bytes can reconstruct the scenario, run a
// replica, and ship its Metrics back. Workloads and selectors are interface
// values, so they travel by name through registries (the built-ins are
// pre-registered; applications add their own with RegisterWorkload /
// RegisterSelector). The registration is what makes process-sharded
// execution (runner.Fleet) able to run "any scenario from bytes"
// while staying bit-identical to in-process runs.

// ScenarioJobKind is the runner job kind under which scenario replicas
// execute on a Backend: payload = ScenarioSpec JSON, result = Metrics JSON.
const ScenarioJobKind = "qnet.scenario"

func init() {
	runner.RegisterKind(ScenarioJobKind, runScenarioJob)
}

// runScenarioJob executes one scenario replica from its serialized spec —
// the worker-process half of Scenario.RunReplicated's Backend path. The
// payload comes from another process, so unknown fields are rejected
// rather than silently dropped. Run errors become Metrics.Err, mirroring
// the in-process replica semantics.
func runScenarioJob(payload []byte, _ int, seed int64) ([]byte, error) {
	var spec ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decode ScenarioSpec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("decode ScenarioSpec: trailing data after the spec")
	}
	sc, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	sc.Config = sc.effectiveConfig()
	sc.Config.Seed = seed
	var m *Metrics
	if res, err := sc.Run(); err != nil {
		m = &Metrics{Name: sc.Name, Err: err.Error()}
	} else {
		m = res.Metrics
	}
	return json.Marshal(m)
}

// runReplicatedOn is RunReplicated's Backend path: serialize once, fan the
// replicas out, collect the decoded metrics in replica order.
func (sc Scenario) runReplicatedOn(o ReplicaOptions) ([]*Metrics, error) {
	// RunReplicated replaces any per-scenario Context with o.Context on the
	// in-process path; mirror that here (o.Context cancels the dispatch
	// parent-side) so a set Context doesn't spuriously fail Spec.
	sc.Context = nil
	spec, err := sc.Spec()
	if err != nil {
		return nil, fmt.Errorf("qnet: scenario cannot run on a sharded backend: %w", err)
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("qnet: encode ScenarioSpec: %w", err)
	}
	return runner.Collect[*Metrics](o.Backend, runner.ExecRequest{
		Kind:     ScenarioJobKind,
		Payload:  payload,
		Replicas: o.Replicas,
		Options:  runner.Options{Workers: o.Workers, Seed: o.Seed, Progress: o.Progress, Context: o.Context},
	})
}

// PluginRef names a registered workload or selector on the wire, with its
// JSON-encoded configuration.
type PluginRef struct {
	Name string
	Spec json.RawMessage `json:",omitempty"`
}

// pluginRegistry maps wire names to concrete Go types both ways.
type pluginRegistry struct {
	what     string // "workload" or "selector", for error messages
	register string // the public registration entry point, for error messages
	mu       sync.RWMutex
	byName   map[string]reflect.Type
	byType   map[reflect.Type]string
}

func newPluginRegistry(what, register string) *pluginRegistry {
	return &pluginRegistry{what: what, register: register, byName: map[string]reflect.Type{}, byType: map[reflect.Type]string{}}
}

func (r *pluginRegistry) add(name string, prototype any) {
	if name == "" || prototype == nil {
		panic(fmt.Sprintf("qnet: %s with empty name or nil prototype", r.register))
	}
	t := reflect.TypeOf(prototype)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("qnet: %s %q registered twice", r.what, name))
	}
	if prev, dup := r.byType[t]; dup {
		panic(fmt.Sprintf("qnet: %s type %v already registered as %q", r.what, t, prev))
	}
	r.byName[name] = t
	r.byType[t] = name
}

// encode turns a live value into its wire reference, failing for
// unregistered types (ad-hoc closures, application one-offs).
func (r *pluginRegistry) encode(v any) (*PluginRef, error) {
	r.mu.RLock()
	name, ok := r.byType[reflect.TypeOf(v)]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%s type %T is not registered (see %s)", r.what, v, r.register)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode %s %q: %w", r.what, name, err)
	}
	return &PluginRef{Name: name, Spec: raw}, nil
}

// decode rebuilds a live value from its wire reference.
func (r *pluginRegistry) decode(ref *PluginRef) (any, error) {
	r.mu.RLock()
	t, ok := r.byName[ref.Name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown %s %q (known: %v)", r.what, ref.Name, r.names())
	}
	ptr := reflect.New(t)
	if len(ref.Spec) > 0 {
		if err := json.Unmarshal(ref.Spec, ptr.Interface()); err != nil {
			return nil, fmt.Errorf("decode %s %q: %w", r.what, ref.Name, err)
		}
	}
	return ptr.Elem().Interface(), nil
}

func (r *pluginRegistry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var (
	workloadRegistry = newPluginRegistry("workload", "RegisterWorkload")
	selectorRegistry = newPluginRegistry("selector", "RegisterSelector")
)

// RegisterWorkload makes a workload type serializable under the given wire
// name, so scenarios using it can run on process-sharded backends. The
// prototype's concrete type must JSON round-trip to an equivalent value
// (exported fields only, no functions). The built-in workloads are
// pre-registered; applications register their own in init so that worker
// processes (re-execs of the same binary) share the table.
func RegisterWorkload(name string, prototype Workload) {
	workloadRegistry.add(name, prototype)
}

// RegisterSelector makes a selector type serializable under the given wire
// name; see RegisterWorkload for the contract.
func RegisterSelector(name string, prototype Selector) {
	selectorRegistry.add(name, prototype)
}

func init() {
	RegisterWorkload("batch", Batch{})
	RegisterWorkload("keep-batch", KeepBatch{})
	RegisterWorkload("continuous-keep", ContinuousKeep{})
	RegisterWorkload("interval-keep", IntervalKeep{})
	RegisterWorkload("poisson-keep", PoissonKeep{})
	RegisterWorkload("onoff-keep", OnOffKeep{})
	RegisterWorkload("measure-stream", MeasureStream{})
	RegisterSelector("diameter-pair", diameterPair{})
	RegisterSelector("random-pairs", randomPairs{})
}

// topoKindNames is the TopologyKind wire vocabulary (TopoCustom is absent:
// a Build closure cannot cross a process boundary).
var topoKindNames = map[TopologyKind]string{
	TopoChain:    "chain",
	TopoDumbbell: "dumbbell",
	TopoRing:     "ring",
	TopoStar:     "star",
	TopoGrid:     "grid",
	TopoWaxman:   "waxman",
}

var topoKindsByName = func() map[string]TopologyKind {
	m := make(map[string]TopologyKind, len(topoKindNames))
	for k, n := range topoKindNames {
		m[n] = k
	}
	return m
}()

// TopologyWire is the JSON form of a TopologySpec.
type TopologyWire struct {
	Kind  string
	Nodes int     `json:",omitempty"`
	Rows  int     `json:",omitempty"`
	Cols  int     `json:",omitempty"`
	Alpha float64 `json:",omitempty"`
	Beta  float64 `json:",omitempty"`
}

func (t TopologySpec) wire() (TopologyWire, error) {
	name, ok := topoKindNames[t.Kind]
	if !ok {
		if t.Kind == TopoCustom {
			return TopologyWire{}, errors.New("custom topologies (Build closures) are not serializable")
		}
		return TopologyWire{}, fmt.Errorf("unknown topology kind %d", t.Kind)
	}
	return TopologyWire{Kind: name, Nodes: t.Nodes, Rows: t.Rows, Cols: t.Cols, Alpha: t.Alpha, Beta: t.Beta}, nil
}

func (w TopologyWire) spec() (TopologySpec, error) {
	kind, ok := topoKindsByName[w.Kind]
	if !ok {
		return TopologySpec{}, fmt.Errorf("unknown topology kind %q", w.Kind)
	}
	return TopologySpec{Kind: kind, Nodes: w.Nodes, Rows: w.Rows, Cols: w.Cols, Alpha: w.Alpha, Beta: w.Beta}, nil
}

// CircuitWire is the JSON form of a CircuitSpec. Application handler
// callbacks do not serialize; only their AutoConsume bits travel.
type CircuitWire struct {
	ID              CircuitID    `json:",omitempty"`
	Src             string       `json:",omitempty"`
	Dst             string       `json:",omitempty"`
	Select          *PluginRef   `json:",omitempty"`
	Fidelity        float64      `json:",omitempty"`
	Policy          CutoffPolicy `json:",omitempty"`
	ManualCutoff    sim.Duration `json:",omitempty"`
	MaxEER          float64      `json:",omitempty"`
	MinEER          float64      `json:",omitempty"`
	Candidates      int          `json:",omitempty"`
	ArriveAt        sim.Duration `json:",omitempty"`
	HoldFor         sim.Duration `json:",omitempty"`
	Arrival         *Dist        `json:",omitempty"`
	Holding         *Dist        `json:",omitempty"`
	Plan            *Plan        `json:",omitempty"`
	Workload        *PluginRef   `json:",omitempty"`
	HeadAutoConsume bool         `json:",omitempty"`
	TailAutoConsume bool         `json:",omitempty"`
	RecordFidelity  bool         `json:",omitempty"`
	Optional        bool         `json:",omitempty"`
}

// hasCallbacks reports whether any function-typed handler field is set.
func hasCallbacks(h Handlers) bool {
	return h.OnPair != nil || h.OnEarlyPair != nil || h.OnExpire != nil ||
		h.OnComplete != nil || h.OnReject != nil || h.OnTestEstimate != nil
}

func (spec CircuitSpec) wire() (CircuitWire, error) {
	if hasCallbacks(spec.Head) || hasCallbacks(spec.Tail) {
		return CircuitWire{}, fmt.Errorf("circuit %q: handler callbacks are not serializable", spec.ID)
	}
	w := CircuitWire{
		ID: spec.ID, Src: spec.Src, Dst: spec.Dst,
		Fidelity: spec.Fidelity, Policy: spec.Policy, ManualCutoff: spec.ManualCutoff,
		MaxEER: spec.MaxEER, MinEER: spec.MinEER, Candidates: spec.Candidates,
		ArriveAt: spec.ArriveAt, HoldFor: spec.HoldFor,
		HeadAutoConsume: spec.Head.AutoConsume, TailAutoConsume: spec.Tail.AutoConsume,
		RecordFidelity: spec.RecordFidelity, Optional: spec.Optional,
	}
	if spec.Arrival != nil {
		d := *spec.Arrival
		w.Arrival = &d
	}
	if spec.Holding != nil {
		d := *spec.Holding
		w.Holding = &d
	}
	if spec.Plan != nil {
		p := *spec.Plan
		w.Plan = &p
	}
	if spec.Select != nil {
		ref, err := selectorRegistry.encode(spec.Select)
		if err != nil {
			return CircuitWire{}, fmt.Errorf("circuit %q: %w", spec.ID, err)
		}
		w.Select = ref
	}
	if spec.Workload != nil {
		ref, err := workloadRegistry.encode(spec.Workload)
		if err != nil {
			return CircuitWire{}, fmt.Errorf("circuit %q: %w", spec.ID, err)
		}
		w.Workload = ref
	}
	return w, nil
}

func (w CircuitWire) spec() (CircuitSpec, error) {
	spec := CircuitSpec{
		ID: w.ID, Src: w.Src, Dst: w.Dst,
		Fidelity: w.Fidelity, Policy: w.Policy, ManualCutoff: w.ManualCutoff,
		MaxEER: w.MaxEER, MinEER: w.MinEER, Candidates: w.Candidates,
		ArriveAt: w.ArriveAt, HoldFor: w.HoldFor,
		Head:           Handlers{AutoConsume: w.HeadAutoConsume},
		Tail:           Handlers{AutoConsume: w.TailAutoConsume},
		RecordFidelity: w.RecordFidelity, Optional: w.Optional,
	}
	if w.Arrival != nil {
		d := *w.Arrival
		spec.Arrival = &d
	}
	if w.Holding != nil {
		d := *w.Holding
		spec.Holding = &d
	}
	if w.Plan != nil {
		p := *w.Plan
		spec.Plan = &p
	}
	if w.Select != nil {
		v, err := selectorRegistry.decode(w.Select)
		if err != nil {
			return CircuitSpec{}, fmt.Errorf("circuit %q: %w", w.ID, err)
		}
		sel, ok := v.(Selector)
		if !ok {
			return CircuitSpec{}, fmt.Errorf("circuit %q: registered selector %q (%T) no longer implements Selector", w.ID, w.Select.Name, v)
		}
		spec.Select = sel
	}
	if w.Workload != nil {
		v, err := workloadRegistry.decode(w.Workload)
		if err != nil {
			return CircuitSpec{}, fmt.Errorf("circuit %q: %w", w.ID, err)
		}
		wl, ok := v.(Workload)
		if !ok {
			return CircuitSpec{}, fmt.Errorf("circuit %q: registered workload %q (%T) no longer implements Workload", w.ID, w.Workload.Name, v)
		}
		spec.Workload = wl
	}
	return spec, nil
}

// ScenarioSpec is the JSON-serializable form of a declarative Scenario: a
// worker process can reconstruct and run the scenario from these bytes
// alone. Spec and Scenario convert in both directions, and a round-tripped
// scenario runs to bit-identical Metrics (the event order is a pure
// function of the scenario value and its seed).
//
// Runtime-only Scenario fields — Setup hooks, Context, handler callbacks,
// custom topology Build closures, unregistered workload/selector types —
// have no wire form; Scenario.Spec reports an error for scenarios using
// them.
type ScenarioSpec struct {
	Name            string `json:",omitempty"`
	Config          Config
	Topology        TopologyWire
	Circuits        []CircuitWire
	Horizon         sim.Duration `json:",omitempty"`
	WaitFor         []CircuitID  `json:",omitempty"`
	Sequential      bool         `json:",omitempty"`
	ProcessingDelay sim.Duration `json:",omitempty"`
}

// Spec converts the scenario to its serializable form, or reports why it
// cannot travel (Setup hook, Context, handler callbacks, custom topology,
// or an unregistered workload/selector type).
func (sc Scenario) Spec() (*ScenarioSpec, error) {
	if sc.Setup != nil {
		return nil, errors.New("scenario Setup hooks are not serializable")
	}
	if sc.Context != nil {
		return nil, errors.New("scenario Context is not serializable (RunReplicated's ReplicaOptions.Context cancels sharded runs parent-side)")
	}
	topo, err := sc.Topology.wire()
	if err != nil {
		return nil, err
	}
	spec := &ScenarioSpec{
		Name: sc.Name, Config: sc.Config, Topology: topo,
		Horizon: sc.Horizon, Sequential: sc.Sequential, ProcessingDelay: sc.ProcessingDelay,
	}
	if len(sc.WaitFor) > 0 {
		spec.WaitFor = append([]CircuitID(nil), sc.WaitFor...)
	}
	for _, c := range sc.Circuits {
		w, err := c.wire()
		if err != nil {
			return nil, err
		}
		spec.Circuits = append(spec.Circuits, w)
	}
	return spec, nil
}

// Scenario materializes the spec back into a runnable Scenario.
func (spec *ScenarioSpec) Scenario() (Scenario, error) {
	topo, err := spec.Topology.spec()
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Name: spec.Name, Config: spec.Config, Topology: topo,
		Horizon: spec.Horizon, Sequential: spec.Sequential, ProcessingDelay: spec.ProcessingDelay,
	}
	if len(spec.WaitFor) > 0 {
		sc.WaitFor = append([]CircuitID(nil), spec.WaitFor...)
	}
	for _, w := range spec.Circuits {
		c, err := w.spec()
		if err != nil {
			return Scenario{}, err
		}
		sc.Circuits = append(sc.Circuits, c)
	}
	return sc, nil
}

package qnet

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"qnp/internal/quantum"
	"qnp/internal/runner"
	"qnp/internal/sim"
)

// TestMain doubles as the shard worker entrypoint for the fleet
// equivalence tests, which re-exec this test binary behind WorkerFlag.
func TestMain(m *testing.M) {
	runner.MaybeWorker()
	os.Exit(m.Run())
}

// metricsJSON canonicalizes metrics for bit-exact comparison: Go's JSON
// codec round-trips every exported field (ints, float64s, sorted map keys)
// exactly.
func metricsJSON(t *testing.T, m *Metrics) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	return b
}

// runSpecRoundTrip runs sc directly and via ScenarioSpec JSON round-trip,
// and fails unless the two Metrics are bit-identical.
func runSpecRoundTrip(t *testing.T, sc Scenario) {
	t.Helper()
	spec, err := sc.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	var decoded ScenarioSpec
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatalf("unmarshal spec: %v", err)
	}
	back, err := decoded.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	want, err := sc.Run()
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	got, err := back.Run()
	if err != nil {
		t.Fatalf("round-tripped run: %v", err)
	}
	w, g := metricsJSON(t, want.Metrics), metricsJSON(t, got.Metrics)
	if !bytes.Equal(w, g) {
		t.Errorf("round-tripped scenario diverged\n want %s\n  got %s", w, g)
	}
}

// TestScenarioSpecRoundTripTopologies proves every serializable topology
// kind encodes, decodes, and runs to identical Metrics.
func TestScenarioSpecRoundTripTopologies(t *testing.T) {
	topos := []struct {
		name string
		spec TopologySpec
	}{
		{"chain", ChainTopo(3)},
		{"dumbbell", DumbbellTopo()},
		{"ring", RingTopo(4)},
		{"star", StarTopo(4)},
		{"grid", GridTopo(2, 2)},
		{"waxman", WaxmanTopo(6, 0.7, 0.4)},
	}
	for _, tc := range topos {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runSpecRoundTrip(t, Scenario{
				Name:     "rt-" + tc.name,
				Config:   Config{Seed: 11},
				Topology: tc.spec,
				Circuits: []CircuitSpec{{
					ID: "c", Select: DiameterPair(), Fidelity: 0.8,
					Workload: ContinuousKeep{}, Optional: true, RecordFidelity: true,
				}},
				Horizon: 2 * sim.Second,
			})
		})
	}
}

// TestScenarioSpecRoundTripWorkloads proves every built-in workload
// encodes, decodes, and runs to identical Metrics.
func TestScenarioSpecRoundTripWorkloads(t *testing.T) {
	bell := quantum.PhiPlus
	workloads := []struct {
		name string
		wl   Workload
	}{
		{"batch", Batch{Requests: []Request{
			{ID: "b0", Type: Keep, NumPairs: 2, Window: sim.Second},
			{ID: "b1", Type: Keep, NumPairs: 1, FinalState: &bell},
		}}},
		{"keep-batch", KeepBatch{Count: 2, Pairs: 2, Window: 2 * sim.Second, IDPrefix: "k"}},
		{"continuous-keep", ContinuousKeep{ID: "ck"}},
		{"interval-keep", IntervalKeep{Interval: 300 * sim.Millisecond, Pairs: 1}},
		{"poisson-keep", PoissonKeep{Mean: 400 * sim.Millisecond, Pairs: 1}},
		{"onoff-keep", OnOffKeep{On: 500 * sim.Millisecond, Off: 500 * sim.Millisecond, Interval: 200 * sim.Millisecond, Pairs: 1}},
		{"measure-stream", MeasureStream{Basis: quantum.XBasis, Pairs: 3}},
	}
	for _, tc := range workloads {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runSpecRoundTrip(t, Scenario{
				Name:     "rt-" + tc.name,
				Config:   Config{Seed: 5},
				Topology: ChainTopo(3),
				Circuits: []CircuitSpec{{
					ID: "c", Src: "n0", Dst: "n2", Fidelity: 0.8,
					Workload: tc.wl, RecordFidelity: true,
				}},
				Horizon: 2 * sim.Second,
			})
		})
	}
}

// TestScenarioSpecRoundTripPhysics proves Config.Physics travels through
// the spec wire: the decoded spec carries the Werner selector, and the
// round-tripped scenario runs to bit-identical Metrics. RecordFidelity
// makes the check sharp — if the field were silently dropped, the decoded
// side would run the exact engine and its recorded fidelities would
// diverge from the Werner originals.
func TestScenarioSpecRoundTripPhysics(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name:     "rt-physics",
		Config:   Config{Seed: 11, Physics: PhysicsWerner},
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{
			ID: "c", Src: "n0", Dst: "n2", Fidelity: 0.8,
			Workload: ContinuousKeep{}, RecordFidelity: true,
		}},
		Horizon: 2 * sim.Second,
	}
	spec, err := sc.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	var decoded ScenarioSpec
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatalf("unmarshal spec: %v", err)
	}
	if decoded.Config.Physics != PhysicsWerner {
		t.Fatalf("decoded Physics = %v, want %v", decoded.Config.Physics, PhysicsWerner)
	}
	runSpecRoundTrip(t, sc)
}

func TestScenarioSpecRejectsRuntimeOnlyFeatures(t *testing.T) {
	base := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{ID: "c", Src: "n0", Dst: "n2", Fidelity: 0.8}},
		Horizon:  sim.Second,
	}
	cases := []struct {
		name string
		mod  func(*Scenario)
		want string
	}{
		{"setup-hook", func(sc *Scenario) { sc.Setup = func(*Network) {} }, "Setup"},
		{"context", func(sc *Scenario) { sc.Context = context.Background() }, "Context"},
		{"custom-topology", func(sc *Scenario) { sc.Topology = CustomTopo(func(cfg Config) *Network { return Chain(cfg, 3) }) }, "custom topologies"},
		{"handler-callbacks", func(sc *Scenario) {
			sc.Circuits[0].Head = Handlers{OnPair: func(Delivered) {}}
		}, "handler callbacks"},
		{"ad-hoc-selector", func(sc *Scenario) {
			sc.Circuits[0].Select = SelectorFunc(func(net *Network, rng *rand.Rand) [][2]string { return nil })
		}, "not registered"},
		{"unregistered-workload", func(sc *Scenario) {
			sc.Circuits[0].Workload = unregisteredWorkload{}
		}, "not registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			sc.Circuits = append([]CircuitSpec(nil), base.Circuits...)
			tc.mod(&sc)
			_, err := sc.Spec()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Spec() err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

type unregisteredWorkload struct{}

func (unregisteredWorkload) Immediate(*WorkloadContext) []Request { return nil }
func (unregisteredWorkload) Start(*WorkloadContext)               {}

// TestMetricsJSONRoundTrip checks a decoded Metrics answers the same
// queries as the original, including the rebuilt lookup indexes.
func TestMetricsJSONRoundTrip(t *testing.T) {
	res, err := Scenario{
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{
			ID: "c", Src: "n0", Dst: "n2", Fidelity: 0.8,
			Workload: KeepBatch{Count: 1, Pairs: 3}, RecordFidelity: true,
		}},
		Horizon: 5 * sim.Second,
		WaitFor: []CircuitID{"c"},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	b := metricsJSON(t, res.Metrics)
	var m Metrics
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	cm := m.Circuit("c")
	if cm == nil {
		t.Fatal("decoded Metrics lost the circuit index")
	}
	if cm.request("r0") == nil {
		t.Fatal("decoded CircuitMetrics lost the request index")
	}
	if !cm.AllComplete() {
		t.Error("decoded metrics disagree on AllComplete")
	}
	if got := metricsJSON(t, &m); !bytes.Equal(b, got) {
		t.Errorf("re-encoded metrics diverged\n want %s\n  got %s", b, got)
	}
}

// shardedScenario is a scenario exercising selector expansion, a random
// topology and recorded fidelities — the serialization surface a sharded
// figure run needs.
func shardedScenario() Scenario {
	return Scenario{
		Name:     "sharded",
		Config:   Config{Seed: 3},
		Topology: WaxmanTopo(8, 0.7, 0.4),
		Circuits: []CircuitSpec{{
			ID: "r", Select: RandomPairs(2), Fidelity: 0.8,
			Workload: ContinuousKeep{}, Optional: true, RecordFidelity: true,
		}},
		Horizon: 2 * sim.Second,
	}
}

// TestRunReplicatedBackendEquivalence is the scenario-level shard-count
// invariance proof: the in-process pool, the InProcess backend (bytes
// codec, same process), one-host fleets of 1 and 3 endpoints, and a
// two-endpoint Fleet with a throttled endpoint must produce bit-identical
// metrics in identical order.
func TestRunReplicatedBackendEquivalence(t *testing.T) {
	sc := shardedScenario()
	const replicas = 6
	opts := func(b runner.Backend) ReplicaOptions {
		return ReplicaOptions{Replicas: replicas, Seed: 21, Backend: b}
	}
	want, err := sc.RunReplicated(opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := make([][]byte, replicas)
	for i, m := range want {
		wantJSON[i] = metricsJSON(t, m)
	}
	worker := []string{os.Args[0], runner.WorkerFlag}
	backends := map[string]runner.Backend{
		"in-process": runner.InProcess{},
		"shards-1":   runner.Fleet{Endpoints: runner.LocalEndpoints(1, 0)},
		"shards-3":   runner.Fleet{Endpoints: runner.LocalEndpoints(3, 0)},
		"fleet-2": runner.Fleet{Endpoints: []runner.Endpoint{
			{Name: "a", Command: worker},
			{Name: "b", Command: worker, Throttle: 20 * time.Millisecond},
		}, ChunkSize: 2},
	}
	for name, b := range backends {
		got, err := sc.RunReplicated(opts(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if g := metricsJSON(t, got[i]); !bytes.Equal(g, wantJSON[i]) {
				t.Errorf("%s: replica %d metrics diverged\n want %s\n  got %s", name, i, wantJSON[i], g)
			}
		}
	}
}

// TestScenarioJobRejectsUnknownFields: the worker-side decoder runs a spec
// straight from Scenario.Spec, but refuses a payload carrying a field the
// spec does not declare — the removed StaticAllocation bool spliced into
// Config, which a lenient decoder would drop and run as count-split, or any
// other unknown key — and a payload with data after the spec.
func TestScenarioJobRejectsUnknownFields(t *testing.T) {
	spec, err := shardedScenario().Spec()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload = payload[:len(payload):len(payload)] // appends below copy
	if _, err := runScenarioJob(payload, 0, 1); err != nil {
		t.Fatalf("spec from Scenario.Spec rejected: %v", err)
	}
	if _, err := runScenarioJob(append(payload, " \n"...), 0, 1); err != nil {
		t.Fatalf("spec with trailing whitespace rejected: %v", err)
	}

	var doc, cfg map[string]json.RawMessage
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["Config"], &cfg); err != nil {
		t.Fatal(err)
	}
	splice := func(field string) []byte {
		cfg[field] = json.RawMessage("true")
		defer delete(cfg, field)
		mod := make(map[string]json.RawMessage, len(doc))
		for k, v := range doc {
			mod[k] = v
		}
		var err error
		if mod["Config"], err = json.Marshal(cfg); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(mod)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"removed Config field", "StaticAllocation", splice("StaticAllocation")},
		{"unknown Config field", "NoSuchOption", splice("NoSuchOption")},
		{"trailing data", "trailing data", append(payload, `{}`...)},
	} {
		_, err := runScenarioJob(tc.payload, 0, 1)
		if err == nil || !strings.Contains(err.Error(), "decode ScenarioSpec") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a decode ScenarioSpec error naming %q", tc.name, err, tc.want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"qnp/internal/experiments"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// The workloads must be the figures they claim to mirror: at quick size the
// benchmark's Fig. 9 scenarios, measured the way the figure measures them,
// reproduce experiments.Fig9 exactly, on both physics engines.
func TestFig9MatchesFigure(t *testing.T) {
	const seed = 3
	horizon, from := 15*sim.Second, 10*sim.Second
	jobs := fig9Jobs([]float64{1, 0.3, 0.15}, 1)
	for _, physics := range []qnet.Physics{qnet.PhysicsExact, qnet.PhysicsWerner} {
		want := experiments.Fig9(experiments.Options{Runs: 1, Seed: seed, Quick: true, Workers: 1, Physics: physics}).Points
		if len(want) != len(jobs) {
			t.Fatalf("%v: figure has %d points, bench grid %d jobs", physics, len(want), len(jobs))
		}
		for i, j := range jobs {
			res, err := fig9Scenario(runner.DeriveSeed(seed, i), physics, j, horizon).Run()
			if err != nil {
				t.Fatal(err)
			}
			cm := res.Metrics.Circuit("main")
			start := res.Metrics.Start.Add(from)
			lat := cm.Latencies(start)
			got := experiments.Fig9Point{
				Congested:    j.congested,
				IntervalS:    j.interval,
				ThroughputPS: float64(cm.DeliveredSince(start)) / (horizon - from).Seconds(),
				LatencyS:     runner.Mean(lat),
				LatP5:        runner.Percentile(lat, 0.05),
				LatP95:       runner.Percentile(lat, 0.95),
			}
			if got != want[i] {
				t.Errorf("%v job %d: bench %+v, figure %+v", physics, i, got, want[i])
			}
		}
	}
}

// nearterm runs Fig. 11's platform and hand-built plan: driven by the
// figure's own workload, it reproduces the figure's delivery staircase.
func TestNearTermMatchesFig11(t *testing.T) {
	o := experiments.Options{Seed: 5, Quick: true}
	want := experiments.Fig11(o)
	sc := nearTermScenario(o.Seed, qnet.Batch{Requests: []qnet.Request{{ID: "r", Type: qnet.Keep, NumPairs: 3}}}, 30*sim.Minute)
	plan := sc.Circuits[0].Plan
	if plan.LinkFidelity != want.LinkF || plan.Cutoff.Seconds() != want.CutoffS || plan.EndToEndFidelity != want.TargetF {
		t.Fatalf("plan %+v does not match Fig. 11 (F_link %v, cutoff %v s, target %v)", plan, want.LinkF, want.CutoffS, want.TargetF)
	}
	sc.WaitFor = []qnet.CircuitID{"nearterm"}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Metrics.Circuit("nearterm")
	if len(cm.DeliveryTimes) != len(want.Deliveries) {
		t.Fatalf("bench delivered %d pairs, figure %d", len(cm.DeliveryTimes), len(want.Deliveries))
	}
	for i, d := range want.Deliveries {
		at := cm.DeliveryTimes[i].Sub(res.Metrics.Start).Seconds()
		if at != d.AtS || cm.Fidelities[i] != d.Fidelity {
			t.Errorf("delivery %d: bench (%v s, F=%v), figure (%v s, F=%v)", i, at, cm.Fidelities[i], d.AtS, d.Fidelity)
		}
	}
}

// city runs the figure's quick scenario: the same admissions, rejections,
// deliveries and completed requests.
func TestCityMatchesFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("city replica takes ~10 s")
	}
	const seed = 1
	// The figure runs on its own goroutine so the two ~9 s replicas overlap.
	figure := make(chan experiments.CityPoint, 1)
	go func() {
		figure <- experiments.City(experiments.Options{Runs: 1, Seed: seed, Quick: true, Workers: 1}).Points[0]
	}()
	res, err := cityScenario(runner.DeriveSeed(seed, 0), cityQuick, churnDemand()).Run()
	want := <-figure
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	got := [4]float64{float64(m.Admitted), float64(m.RejectedAtAdmission), float64(m.TotalDelivered()), float64(m.LatencySummary().Count)}
	if exp := [4]float64{want.Admitted, want.Rejected, want.Deliv, float64(want.LatN)}; got != exp {
		t.Errorf("bench (admitted, rejected, delivered, completed) = %v, figure %v", got, exp)
	}
}

// Attribution on a synthetic stack set: self time to the innermost layer
// frame (runtime when there is none), cumulative time once per layer.
func TestProfileAttribution(t *testing.T) {
	p := &profile{
		stacks: [][]string{
			{"runtime.mallocgc", "qnp/internal/linalg.New", "qnp/internal/quantum.SwapW",
				"qnp/internal/device.(*Device).Swap.func1", "qnp/internal/sim.(*Simulation).Step",
				"qnp/qnet.Scenario.Run", "main.runReplica"},
			{"qnp/internal/routing.(*Controller).worstCase", "qnp/internal/routing.(*Controller).planPath",
				"qnp/qnet.(*Network).Establish"},
			{"runtime.gcBgMarkWorker"},
			{"qnp/internal/runner.Run[...].func1", "qnp/internal/lint/analysis.Run", "main.main"},
		},
		weights: []int64{5, 2, 2, 1},
	}
	got := p.shares()
	want := map[string]float64{
		"linalg.self_share": 0.5, "linalg.cum_share": 0.5,
		"quantum.cum_share": 0.5, "device.cum_share": 0.5, "sim.cum_share": 0.5,
		"routing.self_share": 0.2, "routing.cum_share": 0.2,
		"qnet.cum_share":     0.7,
		"runtime.self_share": 0.3,
	}
	if len(got) != 2*len(layers)+1 {
		t.Errorf("%d shares, want %d", len(got), 2*len(layers)+1)
	}
	self := got["runtime.self_share"]
	for _, l := range layers {
		self += got[l+".self_share"]
		for _, name := range []string{l + ".self_share", l + ".cum_share"} {
			if got[name] != want[name] {
				t.Errorf("%s = %v, want %v", name, got[name], want[name])
			}
		}
	}
	if got["runtime.self_share"] != want["runtime.self_share"] {
		t.Errorf("runtime.self_share = %v, want %v", got["runtime.self_share"], want["runtime.self_share"])
	}
	if self < 1-1e-12 || self > 1+1e-12 {
		t.Errorf("self shares sum to %v, want 1", self)
	}
}

//go:noinline
func spin(until time.Time) (x float64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	return x
}

// The stdlib decoder reads a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for i, stack := range p.stacks {
		total += p.weights[i]
		for _, fn := range stack {
			if fn == "qnp/bench.spin" || fn == "main.spin" {
				inSpin += p.weights[i]
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("spin holds %d of %d sampled ns across %d stacks", inSpin, total, len(p.stacks))
	}
}

// BENCHMARK.json and the program agree on every metric's name and unit.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, listed)
	}
	compare := func(kind string, specs []metricSpec, file []struct{ Name, Unit string }) {
		if len(specs) != len(file) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(specs), len(file))
		}
		for i := 0; i < len(specs) && i < len(file); i++ {
			if specs[i].name != file[i].Name || specs[i].unit != file[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, specs[i].name, specs[i].unit, file[i].Name, file[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEndMetrics, b.EndToEnd)
	compare("per_layer", perLayerMetrics, b.PerLayer)
}

// tinyWorkload is a two-replica Werner Fig. 9 cell, cheap enough to run
// end to end in tests.
func tinyWorkload() workload {
	jobs := fig9Jobs([]float64{0.3}, 1)
	return workload{
		name: "tiny",
		jobs: len(jobs),
		scenario: func(job int, seed int64) qnet.Scenario {
			return fig9Scenario(seed, qnet.PhysicsWerner, jobs[job], 2*sim.Second)
		},
	}
}

// A run prints a result line holding exactly the end-to-end metrics, each
// with its unit, after two passes that reproduce each other.
func TestRunEmitsEndToEnd(t *testing.T) {
	tiny := tinyWorkload()
	workloads = append(workloads, tiny)
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "tiny", "-seed", "2", "-seconds", "0.01", "-trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 2*tiny.jobs {
		t.Errorf("correct %v, %d of %d failed, want ≥ %d attempted; stderr %s", r.Correct, r.Failed, r.Attempted, 2*tiny.jobs, stderr.String())
	}
	checkMetrics(t, endToEndMetrics, r.Metrics)
}

// The traced replay reproduces the untraced counters, and with the ladder
// it yields exactly the per-layer metrics.
func TestTracedEmitsPerLayer(t *testing.T) {
	m := measure(tinyWorkload(), 2, 0, 1)
	pass, ok := m.firstPass()
	if !ok {
		t.Fatalf("pass 0 failed: %v", m.failures)
	}
	replay, prof, err := m.traced(pass)
	if err != nil {
		t.Fatal(err)
	}
	if digest(replay) != digest(pass) {
		t.Errorf("traced digest %s, untraced %s", digest(replay), digest(pass))
	}
	values := perLayer(pass, replay, prof)
	if values["netsim.track_msgs"] == 0 || values["signaling.msgs"] == 0 {
		t.Errorf("message counter saw %v TRACK, %v signalling messages", values["netsim.track_msgs"], values["signaling.msgs"])
	}
	got := map[string]metric{}
	for k, v := range values {
		got[k] = metric{v, ""}
	}
	for _, s := range ladderMetrics {
		got[s.name] = metric{}
	}
	checkMetrics(t, perLayerMetrics, got)
}

// checkMetrics compares a result's metrics with a schema; an empty unit in
// got is not checked.
func checkMetrics(t *testing.T, specs []metricSpec, got map[string]metric) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%d metrics, schema has %d", len(got), len(specs))
	}
	for _, s := range specs {
		if m, ok := got[s.name]; !ok || (m.Unit != "" && m.Unit != s.unit) {
			t.Errorf("metric %s = %+v, want unit %s", s.name, m, s.unit)
		}
	}
}

// Every ladder row measures and reports its declared metrics. The routing
// row is left to the benchmark's traced runs: its 1000 exact-physics
// placements take about half a minute.
func TestLadderRows(t *testing.T) {
	if testing.Short() {
		t.Skip("ladder rows take a few seconds")
	}
	for _, r := range ladderRows {
		if strings.HasPrefix(r.metrics[0].name, "routing.") {
			continue
		}
		vals, err := r.run(3)
		if err != nil {
			t.Errorf("%s: %v", r.metrics[0].name, err)
			continue
		}
		if len(vals) != len(r.metrics) {
			t.Errorf("%s: %d values for %d metrics", r.metrics[0].name, len(vals), len(r.metrics))
			continue
		}
		for i, m := range r.metrics {
			if vals[i] < 0 || (m.unit == "ns" && vals[i] == 0) {
				t.Errorf("%s = %v", m.name, vals[i])
			}
		}
	}
}

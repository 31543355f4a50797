package qnet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"qnp/internal/race"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/internal/stats"
)

// TestEERWindowExcludesLateDeliveries is the regression net for the
// DeliveredSince window bug: EER(from, to) used to count every delivery at
// or after from, including those past to — an early-stop run that
// overshoots its horizon inflated the measured rate. Both modes must
// exclude them.
func TestEERWindowExcludesLateDeliveries(t *testing.T) {
	times := []sim.Time{0, sim.Time(2 * sim.Second), sim.Time(4 * sim.Second),
		sim.Time(9 * sim.Second), sim.Time(11 * sim.Second)}
	full := newCircuitMetrics("c", "a", "b", MetricsFull)
	str := newCircuitMetrics("c", "a", "b", MetricsStreaming)
	for _, at := range times {
		full.noteDelivery(at, false, 0, 0)
		str.noteDelivery(at, false, 0, 0)
	}
	from, to := sim.Time(sim.Second), sim.Time(10*sim.Second)
	for name, cm := range map[string]*CircuitMetrics{"full": full, "streaming": str} {
		// Window [1 s, 10 s] holds the deliveries at 2, 4 and 9 s; the ones
		// at 0 and 11 s are outside.
		if got := cm.DeliveredBetween(from, to); got != 3 {
			t.Errorf("%s: DeliveredBetween = %d, want 3", name, got)
		}
		if got, want := cm.EER(from, to), 3.0/9.0; got != want {
			t.Errorf("%s: EER = %v, want %v", name, got, want)
		}
		if got := cm.DeliveredSince(from); got != 4 {
			t.Errorf("%s: DeliveredSince = %d, want 4", name, got)
		}
		// Full window stays exact in both modes.
		if got := cm.DeliveredBetween(0, sim.Time(11*sim.Second)); got != 5 {
			t.Errorf("%s: full-window DeliveredBetween = %d, want 5", name, got)
		}
		if got := cm.DeliveredBetween(to, from); got != 0 {
			t.Errorf("%s: inverted window = %d, want 0", name, got)
		}
	}
}

// streamingPair runs the same scenario in both metrics modes.
func streamingPair(t *testing.T, sc Scenario) (full, str *Metrics) {
	t.Helper()
	cfg := sc.effectiveConfig()
	cfg.MetricsMode = MetricsFull
	sc.Config = cfg
	resFull, err := sc.Run()
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	cfg.MetricsMode = MetricsStreaming
	sc.Config = cfg
	resStr, err := sc.Run()
	if err != nil {
		t.Fatalf("streaming run: %v", err)
	}
	return resFull.Metrics, resStr.Metrics
}

// TestStreamingModeAgreement is the tentpole's correctness contract:
// MetricsStreaming never changes the simulation, so every counter is
// bit-identical to MetricsFull, means agree exactly, and percentiles agree
// within the histogram tolerance — while the per-event records stay empty.
func TestStreamingModeAgreement(t *testing.T) {
	full, str := streamingPair(t, Scenario{
		Topology: DumbbellTopo(),
		Circuits: []CircuitSpec{
			{ID: "a", Src: "A0", Dst: "B0", Fidelity: 0.85,
				Workload: IntervalKeep{Interval: 200 * sim.Millisecond, Pairs: 1}, RecordFidelity: true},
			{ID: "b", Src: "A1", Dst: "B1", Fidelity: 0.85,
				Workload: PoissonKeep{Mean: 300 * sim.Millisecond, Pairs: 2}},
		},
		Horizon: 20 * sim.Second,
	})
	if str.Mode != MetricsStreaming || full.Mode != MetricsFull {
		t.Fatalf("modes recorded as full=%v streaming=%v", full.Mode, str.Mode)
	}
	if full.Start != str.Start || full.End != str.End {
		t.Fatalf("run windows differ: [%v,%v] vs [%v,%v]", full.Start, full.End, str.Start, str.End)
	}
	for _, id := range []CircuitID{"a", "b"} {
		f, s := full.Circuit(id), str.Circuit(id)
		// Simulation-side counters are bit-identical.
		if f.Delivered != s.Delivered || f.Submitted != s.Submitted ||
			f.Completed != s.Completed || f.Rejected != s.Rejected ||
			f.Expired != s.Expired || f.PendingFinite != s.PendingFinite {
			t.Errorf("%s: counters diverged: full %+v streaming %+v", id,
				[]int{f.Delivered, f.Submitted, f.Completed, f.Rejected, f.Expired, f.PendingFinite},
				[]int{s.Delivered, s.Submitted, s.Completed, s.Rejected, s.Expired, s.PendingFinite})
		}
		if f.Submitted != len(f.Requests) {
			t.Errorf("%s: full mode Submitted %d != %d request records", id, f.Submitted, len(f.Requests))
		}
		// Streaming drops the records...
		if len(s.DeliveryTimes) != 0 || len(s.Requests) != 0 || len(s.Fidelities) != 0 || len(s.States) != 0 {
			t.Errorf("%s: streaming kept records: %d times, %d requests, %d fidelities",
				id, len(s.DeliveryTimes), len(s.Requests), len(s.Fidelities))
		}
		// ...and the aggregates hold the same series.
		if s.DeliveryAgg == nil || s.DeliveryAgg.Count != int64(s.Delivered) {
			t.Fatalf("%s: DeliveryAgg count %v, delivered %d", id, s.DeliveryAgg, s.Delivered)
		}
		if s.LatencyAgg.Count != int64(s.Completed) {
			t.Errorf("%s: LatencyAgg count %d, completed %d", id, s.LatencyAgg.Count, s.Completed)
		}
		// Rates and means agree exactly (exact sums on both sides).
		if fe, se := f.EER(full.Start, full.End), s.EER(str.Start, str.End); fe != se {
			t.Errorf("%s: EER %v (full) vs %v (streaming)", id, fe, se)
		}
		if ff, sf := f.MeanFidelity(), s.MeanFidelity(); ff != sf {
			t.Errorf("%s: MeanFidelity %v (full) vs %v (streaming)", id, ff, sf)
		}
		if f.AllComplete() != s.AllComplete() {
			t.Errorf("%s: AllComplete %v (full) vs %v (streaming)", id, f.AllComplete(), s.AllComplete())
		}
	}
	// Cross-circuit summaries: exact mean agreement, histogram-tolerance
	// percentile agreement.
	fl, sl := full.LatencySummary(), str.LatencySummary()
	if fl.Count != sl.Count {
		t.Fatalf("latency counts: %d vs %d", fl.Count, sl.Count)
	}
	if fm, sm := fl.Mean(), sl.Mean(); math.Abs(fm-sm) > 1e-9*math.Abs(fm) {
		t.Errorf("mean latency %v (full) vs %v (streaming)", fm, sm)
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		fp, sp := fl.Percentile(p), sl.Percentile(p)
		if fp == 0 {
			continue
		}
		if rel := math.Abs(fp-sp) / fp; rel > 2.0/stats.BucketsPerOctave {
			t.Errorf("p%v latency %v (full) vs %v (streaming), rel err %.4f", 100*p, fp, sp, rel)
		}
	}
}

// TestStreamingSpecAndJSONRoundTrip: MetricsMode survives the ScenarioSpec
// wire form, and a streaming Metrics round-trips through JSON
// bit-identically with working lookup helpers — the contract the sharded
// backend rides on.
func TestStreamingSpecAndJSONRoundTrip(t *testing.T) {
	sc := Scenario{
		Name:     "rt-streaming",
		Config:   Config{Seed: 11, MetricsMode: MetricsStreaming},
		Topology: ChainTopo(3),
		Circuits: []CircuitSpec{{
			ID: "c", Src: "n0", Dst: "n2", Fidelity: 0.8,
			Workload: KeepBatch{Count: 2, Pairs: 3}, RecordFidelity: true,
		}},
		Horizon: 10 * sim.Second,
		WaitFor: []CircuitID{"c"},
	}
	spec, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ScenarioSpec
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.MetricsMode != MetricsStreaming {
		t.Fatalf("MetricsMode lost on the spec wire: %v", back.Config.MetricsMode)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	blob := metricsJSON(t, m)
	var dec Metrics
	if err := json.Unmarshal(blob, &dec); err != nil {
		t.Fatal(err)
	}
	cm := dec.Circuit("c")
	if cm == nil {
		t.Fatal("decoded streaming Metrics lost the circuit index")
	}
	if !cm.streaming {
		t.Error("decoded circuit not marked streaming")
	}
	if !cm.AllComplete() {
		t.Error("decoded streaming metrics disagree on AllComplete")
	}
	if got, want := cm.EER(dec.Start, dec.End), m.Circuit("c").EER(m.Start, m.End); got != want {
		t.Errorf("decoded EER %v, want %v", got, want)
	}
	if got := metricsJSON(t, &dec); !bytes.Equal(blob, got) {
		t.Errorf("re-encoded streaming metrics diverged\n want %s\n  got %s", blob, got)
	}
}

// TestStreamingShardMergeIdentity: replicated streaming runs through
// one-host fleets of 1 and 3 endpoints produce bit-identical per-replica
// metrics, and folding the replicas' aggregates in replica order gives
// bit-identical summary statistics regardless of shard count.
func TestStreamingShardMergeIdentity(t *testing.T) {
	sc := shardedScenario()
	sc.Config.MetricsMode = MetricsStreaming
	const replicas = 6
	run := func(shards int) []*Metrics {
		ms, err := sc.RunReplicated(ReplicaOptions{
			Replicas: replicas, Seed: 21,
			Backend: runner.Fleet{Endpoints: runner.LocalEndpoints(shards, 0)},
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return ms
	}
	one, three := run(1), run(3)
	merged := func(ms []*Metrics) (*stats.Agg, *stats.Agg, string) {
		lat, fid := new(stats.Agg), new(stats.Agg)
		var b strings.Builder
		for i, m := range ms {
			lat.Merge(m.LatencySummary())
			fid.Merge(m.FidelitySummary())
			blob := metricsJSON(t, m)
			b.WriteString(string(blob))
			b.WriteByte('\n')
			_ = i
		}
		return lat, fid, b.String()
	}
	lat1, fid1, raw1 := merged(one)
	lat3, fid3, raw3 := merged(three)
	if raw1 != raw3 {
		t.Fatal("per-replica metrics JSON differs between 1 and 3 shards")
	}
	for _, pair := range []struct {
		name string
		a, b *stats.Agg
	}{{"latency", lat1, lat3}, {"fidelity", fid1, fid3}} {
		if pair.a.Count != pair.b.Count || pair.a.Sum() != pair.b.Sum() ||
			pair.a.Mean() != pair.b.Mean() ||
			pair.a.Percentile(0.5) != pair.b.Percentile(0.5) ||
			pair.a.Percentile(0.95) != pair.b.Percentile(0.95) {
			t.Errorf("%s summary differs between shard counts", pair.name)
		}
	}
}

// TestUnmarshalPendingState pins satellite 3: the wait-loop state decodes
// faithfully, and a MetricsFull stream whose PendingFinite contradicts its
// own request records is rejected instead of decoded into a wrong wait
// state.
func TestUnmarshalPendingState(t *testing.T) {
	cm := newCircuitMetrics("c", "a", "b", MetricsFull)
	cm.Established = true
	cm.noteSubmit(&RequestMetrics{ID: "r0", SubmittedAt: 0, Pairs: 2})
	cm.PendingArrival = true
	m := &Metrics{Name: "pending", Circuits: []*CircuitMetrics{cm},
		byID: map[CircuitID]*CircuitMetrics{"c": cm}}
	if m.waitSatisfied([]CircuitID{"c"}) {
		t.Fatal("precondition: original should be unsatisfied")
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var dec Metrics
	if err := json.Unmarshal(blob, &dec); err != nil {
		t.Fatal(err)
	}
	c := dec.Circuit("c")
	if !c.PendingArrival || c.PendingFinite != 1 {
		t.Errorf("decoded wait state: PendingArrival=%v PendingFinite=%d, want true/1",
			c.PendingArrival, c.PendingFinite)
	}
	if dec.waitSatisfied([]CircuitID{"c"}) != m.waitSatisfied([]CircuitID{"c"}) {
		t.Error("decoded waitSatisfied differs from the original")
	}

	// Corrupt the counter: a full-mode decode must reject the mismatch.
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	raw["Circuits"].([]any)[0].(map[string]any)["PendingFinite"] = 7
	bad, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var rej Metrics
	if err := json.Unmarshal(bad, &rej); err == nil ||
		!strings.Contains(err.Error(), "PendingFinite") {
		t.Errorf("corrupt PendingFinite decoded without error (err=%v)", err)
	}
}

// TestAllocsStreamingRecording is the PR's constant-memory gate at the
// metrics layer: a warm streaming circuit absorbs a million
// submit/deliver/complete cycles with allocations bounded by histogram
// bucket growth, not event count. Full mode, by contrast, appends one
// record per event — the O(deliveries) behavior this PR escapes.
func TestAllocsStreamingRecording(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	cm := newCircuitMetrics("c", "a", "b", MetricsStreaming)
	at := sim.Time(0)
	id := RequestID("r")
	warm := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			rm := RequestMetrics{ID: id, Pairs: 1}
			for i := 0; i < n; i++ {
				at = at.Add(sim.Millisecond)
				rm.SubmittedAt = at
				rm.Done, rm.CompletedAt = false, 0
				cm.noteSubmit(&rm)
				cm.noteDelivery(at.Add(sim.Microsecond), true, 0.9, 0)
				cm.noteComplete(id, at.Add(2*sim.Microsecond))
			}
		})
	}
	warm(4 * stats.ExactThreshold) // spill all three aggregates
	if allocs := warm(1_000_000); allocs > 200 {
		t.Errorf("1e6 streaming deliveries allocated %v times, want ≤ 200", allocs)
	}
	if cm.Delivered < 1_000_000 || len(cm.DeliveryTimes) != 0 || len(cm.Requests) != 0 {
		t.Fatalf("gate exercised the wrong path: %d delivered, %d times, %d requests",
			cm.Delivered, len(cm.DeliveryTimes), len(cm.Requests))
	}
}

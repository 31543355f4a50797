package qnet

import (
	"bytes"
	"encoding/json"
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
	full := newCircuitMetrics("c", "a", "b", true)
	str := newCircuitMetrics("c", "a", "b", false)
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

// TestInFlightIndex drives the recording hooks directly: a request leaves
// the in-flight index on its first completion or rejection, so a
// completion after a rejection, a second completion and a rejection after
// a completion leave Completed and PendingFinite alone, in either mode.
// Full mode used to let a rejected request complete, counting it and
// driving PendingFinite to -1.
func TestInFlightIndex(t *testing.T) {
	type op func(cm *CircuitMetrics)
	reject := func(cm *CircuitMetrics) { cm.noteReject("r") }
	complete := func(cm *CircuitMetrics) { cm.noteComplete("r", sim.Time(sim.Second)) }
	for _, tc := range []struct {
		name                         string
		ops                          []op
		completed, rejected, pending int
	}{
		{"reject then complete", []op{reject, complete}, 0, 1, 0},
		{"complete twice", []op{complete, complete}, 1, 0, 0},
		{"reject after complete", []op{complete, reject}, 1, 1, 0},
	} {
		for _, records := range []bool{true, false} {
			cm := newCircuitMetrics("c", "a", "b", records)
			cm.noteSubmit(&RequestMetrics{ID: "r", Pairs: 2})
			for _, o := range tc.ops {
				o(cm)
			}
			if cm.Completed != tc.completed || cm.Rejected != tc.rejected || cm.PendingFinite != tc.pending {
				t.Errorf("%s (records=%v): Completed/Rejected/PendingFinite = %d/%d/%d, want %d/%d/%d",
					tc.name, records, cm.Completed, cm.Rejected, cm.PendingFinite,
					tc.completed, tc.rejected, tc.pending)
			}
			if len(cm.reqByID) != 0 || cm.LatencyAgg.Count != int64(cm.Completed) {
				t.Errorf("%s (records=%v): %d still in flight, %d latencies for %d completions",
					tc.name, records, len(cm.reqByID), cm.LatencyAgg.Count, cm.Completed)
			}
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

// TestStreamingModeAgreement is the recording contract: MetricsStreaming
// never changes the simulation, so every counter is bit-identical to
// MetricsFull; both modes feed the same aggregates, so every summary is
// bit-identical too — while the streaming per-event records stay empty.
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
		// ...and both modes' aggregates hold the same series.
		for mode, c := range map[string]*CircuitMetrics{"full": f, "streaming": s} {
			if c.DeliveryAgg == nil || c.DeliveryAgg.Count != int64(c.Delivered) {
				t.Fatalf("%s %s: DeliveryAgg %v, delivered %d", id, mode, c.DeliveryAgg, c.Delivered)
			}
			if c.LatencyAgg == nil || c.LatencyAgg.Count != int64(c.Completed) {
				t.Fatalf("%s %s: LatencyAgg %v, completed %d", id, mode, c.LatencyAgg, c.Completed)
			}
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
	// Cross-circuit summaries come from the same aggregates in both modes.
	for name, pair := range map[string][2]*stats.Agg{
		"latency":  {full.LatencySummary(), str.LatencySummary()},
		"fidelity": {full.FidelitySummary(), str.FidelitySummary()},
	} {
		if pair[0].Count == 0 {
			t.Errorf("%s summary is empty", name)
		}
		fj, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fj, sj) {
			t.Errorf("%s summary differs between modes\n full %s\n streaming %s", name, fj, sj)
		}
	}
}

// TestAllocsStreamingRecording is the constant-memory gate at the metrics
// layer: a warm streaming circuit absorbs a million
// submit/deliver/complete cycles with allocations bounded by histogram
// bucket growth, not event count. Both modes feed these aggregates; full
// mode additionally appends one record per event, the O(deliveries) cost
// that streaming drops.
func TestAllocsStreamingRecording(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	cm := newCircuitMetrics("c", "a", "b", false)
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

// TestStreamingShardMergeIdentity: streaming replicas sharded across one
// and three workers produce bit-identical per-replica metrics, and folding
// the replicas' aggregates in replica order gives bit-identical summary
// statistics regardless of the worker count.
func TestStreamingShardMergeIdentity(t *testing.T) {
	sc := Scenario{
		Config:   Config{MetricsMode: MetricsStreaming},
		Topology: WaxmanTopo(8, 0.7, 0.4),
		Circuits: []CircuitSpec{{
			ID: "r", Select: RandomPairs(2), Fidelity: 0.8,
			Workload: ContinuousKeep{}, Optional: true, RecordFidelity: true,
		}},
		Horizon: 2 * sim.Second,
	}
	const replicas = 6
	run := func(workers int) (lat, fid *stats.Agg, raw []byte) {
		ms, err := runner.Run(runner.Options{Workers: workers, Seed: 21}, replicas, func(_ int, seed int64) *Metrics {
			replica := sc
			replica.Config.Seed = seed
			res, err := replica.Run()
			if err != nil {
				t.Error(err)
				return &Metrics{}
			}
			return res.Metrics
		})
		if err != nil {
			t.Fatal(err)
		}
		lat, fid = new(stats.Agg), new(stats.Agg)
		for _, m := range ms {
			lat.Merge(m.LatencySummary())
			fid.Merge(m.FidelitySummary())
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(append(raw, b...), '\n')
		}
		return lat, fid, raw
	}
	lat1, fid1, raw1 := run(1)
	lat3, fid3, raw3 := run(3)
	if !bytes.Equal(raw1, raw3) {
		t.Fatal("per-replica metrics JSON differs between 1 and 3 workers")
	}
	if fid1.Count == 0 {
		t.Fatal("no fidelities recorded; the merge is vacuous")
	}
	for _, pair := range []struct {
		name string
		a, b *stats.Agg
	}{{"latency", lat1, lat3}, {"fidelity", fid1, fid3}} {
		if pair.a.Count != pair.b.Count || pair.a.Sum() != pair.b.Sum() ||
			pair.a.Mean() != pair.b.Mean() ||
			pair.a.Percentile(0.5) != pair.b.Percentile(0.5) ||
			pair.a.Percentile(0.95) != pair.b.Percentile(0.95) {
			t.Errorf("%s summary differs between worker counts", pair.name)
		}
	}
}

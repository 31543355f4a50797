package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// The quick variants of every figure must run and produce physically
// sensible headline numbers — this is the regression net for the whole
// reproduction harness. Under -short the full quick grids give way to
// trimmed two-point variants that exercise the same run functions, so
// `go test -race -short ./...` stays fast while `go test ./...` keeps the
// complete shape checks.

func TestFig5Quick(t *testing.T) {
	t.Parallel()
	d := Fig5(QuickOptions())
	if len(d.Samples) < 100 {
		t.Fatalf("samples = %d", len(d.Samples))
	}
	// Paper: mean ≈10 ms, 95% within ≈30 ms.
	if d.MeanMS < 5 || d.MeanMS > 20 {
		t.Errorf("mean = %.1f ms, want ≈10", d.MeanMS)
	}
	if d.P95MS < 15 || d.P95MS > 60 {
		t.Errorf("p95 = %.1f ms, want ≈30", d.P95MS)
	}
	if cdf := d.CDF(1.0); cdf < 0.99 {
		t.Errorf("CDF(1s) = %v", cdf)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Error("Print output missing header")
	}
}

func TestFig8Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Two points of the single-circuit panel: latency must grow with
		// offered load.
		one := fig8Run(runner.DeriveSeed(1, 0), 1, false, 0.85, 1, 10, 60*sim.Second)
		eight := fig8Run(runner.DeriveSeed(1, 1), 1, false, 0.85, 8, 10, 60*sim.Second)
		if eight.LatencyS <= one.LatencyS {
			t.Errorf("latency not increasing with load: 1→%.2f 8→%.2f", one.LatencyS, eight.LatencyS)
		}
		return
	}
	d := Fig8(QuickOptions())
	if len(d.Points) == 0 {
		t.Fatal("no points")
	}
	// Latency grows with load on the single-circuit panel.
	var one, eight float64
	for _, p := range d.Points {
		if p.Circuits == 1 && !p.ShortCut {
			if p.Requests == 1 {
				one = p.LatencyS
			}
			if p.Requests == 8 {
				eight = p.LatencyS
			}
		}
	}
	if eight <= one {
		t.Errorf("latency not increasing with load: 1→%.2f 8→%.2f", one, eight)
	}
	// The congestion collapse: 4 circuits with the long cutoff are far
	// slower at load 8 than with the short cutoff.
	var long4, short4 float64
	for _, p := range d.Points {
		if p.Circuits == 4 && p.Requests == 8 {
			if p.ShortCut {
				short4 = p.LatencyS
			} else {
				long4 = p.LatencyS
			}
		}
	}
	if long4 < 2*short4 {
		t.Errorf("no congestion collapse: long=%.2f short=%.2f", long4, short4)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "panel: 4 circuit(s)") {
		t.Error("Print output missing panels")
	}
}

func TestFig9Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// One load point, empty versus congested: congestion must cost
		// latency.
		empty := fig9Run(runner.DeriveSeed(1, 0), qnet.PhysicsExact, false, 0.3, 10*sim.Second, 6*sim.Second)
		congested := fig9Run(runner.DeriveSeed(1, 0), qnet.PhysicsExact, true, 0.3, 10*sim.Second, 6*sim.Second)
		if congested.LatencyS <= empty.LatencyS {
			t.Errorf("congested latency %.3f not above empty %.3f", congested.LatencyS, empty.LatencyS)
		}
		return
	}
	d := Fig9(QuickOptions())
	if len(d.Points) == 0 {
		t.Fatal("no points")
	}
	// Congestion raises latency at comparable load.
	var empty, congested float64
	for _, p := range d.Points {
		if p.IntervalS == 0.3 {
			if p.Congested {
				congested = p.LatencyS
			} else {
				empty = p.LatencyS
			}
		}
	}
	if congested <= empty {
		t.Errorf("congested latency %.3f not above empty %.3f", congested, empty)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "congested network") {
		t.Error("Print output incomplete")
	}
}

func TestFig10ABQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Cutoff-protocol throughput must grow with memory lifetime, and
		// the laxer F=0.8 circuit must outpace F=0.9.
		lo := fig10Run(runner.DeriveSeed(1, 0), 0.5, false, 3*sim.Second, 0)
		hi := fig10Run(runner.DeriveSeed(1, 1), 60, false, 3*sim.Second, 0)
		if hi[0].Raw <= lo[0].Raw {
			t.Errorf("throughput did not grow with lifetime: %d → %d pairs", lo[0].Raw, hi[0].Raw)
		}
		if hi[1].Raw <= hi[0].Raw {
			t.Errorf("F=0.8 (%d pairs) not faster than F=0.9 (%d pairs)", hi[1].Raw, hi[0].Raw)
		}
		return
	}
	d := Fig10AB(QuickOptions())
	// Throughput grows with memory lifetime for the cutoff protocol, and
	// the F=0.8 circuit outpaces the F=0.9 circuit.
	get := func(t2, f float64, oracle bool) float64 {
		for _, p := range d.Points {
			if p.T2Star == t2 && p.Fidelity == f && p.Oracle == oracle {
				return p.PairsPS
			}
		}
		return -1
	}
	if get(60, 0.9, false) <= get(0.5, 0.9, false) {
		t.Error("cutoff throughput did not grow with lifetime (F=0.9)")
	}
	if get(60, 0.8, false) <= get(60, 0.9, false) {
		t.Error("F=0.8 circuit not faster than F=0.9")
	}
	// The cutoff beats the oracle baseline at short lifetimes (the paper's
	// central claim in §5.2).
	if get(0.5, 0.8, false) <= get(0.5, 0.8, true) {
		t.Errorf("cutoff (%.2f) not above oracle (%.2f) at T2*=0.5",
			get(0.5, 0.8, false), get(0.5, 0.8, true))
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "panel F=0.9") {
		t.Error("Print output incomplete")
	}
}

func TestFig10CQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Raw delivery rate must degrade once the control-plane delay
		// approaches the cutoff.
		d0 := fig10Run(runner.DeriveSeed(1, 0), 1.6, false, 3*sim.Second, 0)
		d16 := fig10Run(runner.DeriveSeed(1, 0), 1.6, false, 3*sim.Second, 16*sim.Millisecond)
		if d16[1].Raw >= d0[1].Raw {
			t.Errorf("throughput did not degrade with delay: %d → %d pairs", d0[1].Raw, d16[1].Raw)
		}
		return
	}
	d := Fig10C(QuickOptions())
	if d.CutoffMS <= 0 {
		t.Error("no cutoff reported")
	}
	get := func(ms float64) (raw, good float64) {
		for _, p := range d.Points {
			if p.DelayMS == ms && p.Fidelity == 0.8 {
				return p.RawPS, p.GoodPS
			}
		}
		return -1, -1
	}
	raw0, _ := get(0)
	raw16, _ := get(16)
	if raw16 >= raw0 {
		t.Errorf("throughput did not degrade with delay: %.1f → %.1f", raw0, raw16)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "dashed line") {
		t.Error("Print output incomplete")
	}
}

func TestFig11Quick(t *testing.T) {
	t.Parallel()
	d := Fig11(QuickOptions())
	if len(d.Deliveries) == 0 {
		t.Fatal("no deliveries on near-term hardware")
	}
	// Pair times are seconds-scale on 25 km links.
	if d.Deliveries[0].AtS < 0.5 {
		t.Errorf("first delivery at %.2f s — implausibly fast for 25 km near-term", d.Deliveries[0].AtS)
	}
	// The tuned configuration demonstrates entanglement (mean F ≥ 0.5).
	if d.MeanFid < 0.45 {
		t.Errorf("mean fidelity %.3f too low", d.MeanFid)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "near-term") {
		t.Error("Print output incomplete")
	}
}

func TestTopologySweepQuick(t *testing.T) {
	t.Parallel()
	d := TopologySweep(QuickOptions())
	if len(d.Points) != 6 {
		t.Fatalf("%d topologies", len(d.Points))
	}
	byName := map[string]TopoPoint{}
	for _, p := range d.Points {
		if p.FeasibleFrac < 1 {
			t.Errorf("%s: routing infeasible (frac %.2f)", p.Topology, p.FeasibleFrac)
		}
		if p.PairsPS <= 0 {
			t.Errorf("%s: no throughput", p.Topology)
		}
		if p.MeanFid < d.TargetF-0.05 {
			t.Errorf("%s: mean fidelity %.3f far below target %.2f", p.Topology, p.MeanFid, d.TargetF)
		}
		byName[p.Topology] = p
	}
	// More hops cost throughput: the 2-hop chain beats the 4-hop one.
	if byName["chain-3"].PairsPS <= byName["chain-5"].PairsPS {
		t.Errorf("chain-3 (%.1f/s) not faster than chain-5 (%.1f/s)",
			byName["chain-3"].PairsPS, byName["chain-5"].PairsPS)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "waxman-10") {
		t.Error("Print output incomplete")
	}
}

func TestHubContentionQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Gateway contention only, two circuit counts: per-circuit
		// throughput must collapse when four circuits share one spoke.
		d := hubContention(QuickOptions(), 1500*sim.Millisecond, []int{1, 4}, []bool{true})
		s1, s4 := d.Points[0], d.Points[1]
		if s4.PerCircuitPS >= 0.7*s1.PerCircuitPS {
			t.Errorf("no gateway contention: per-circuit %.1f/s → %.1f/s", s1.PerCircuitPS, s4.PerCircuitPS)
		}
		return
	}
	d := HubContention(QuickOptions())
	if len(d.Points) != 8 {
		t.Fatalf("%d points", len(d.Points))
	}
	get := func(k int, shared bool) HubPoint {
		for _, p := range d.Points {
			if p.Circuits == k && p.Shared == shared {
				return p
			}
		}
		t.Fatalf("missing point k=%d shared=%v", k, shared)
		return HubPoint{}
	}
	// Disjoint spokes scale: four circuits deliver well over twice one
	// circuit's aggregate, and the hub's swap load grows with them.
	if d1, d4 := get(1, false), get(4, false); d4.AggregatePS < 2*d1.AggregatePS {
		t.Errorf("disjoint spokes did not scale: 1→%.1f/s, 4→%.1f/s", d1.AggregatePS, d4.AggregatePS)
	} else if d4.HubSwaps <= d1.HubSwaps {
		t.Errorf("hub swap load did not grow: %.1f → %.1f", d1.HubSwaps, d4.HubSwaps)
	}
	// The shared gateway spoke is the contention point: per-circuit
	// throughput collapses as circuits pile onto it.
	if s1, s4 := get(1, true), get(4, true); s4.PerCircuitPS >= 0.7*s1.PerCircuitPS {
		t.Errorf("no gateway contention: per-circuit %.1f/s → %.1f/s", s1.PerCircuitPS, s4.PerCircuitPS)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "shared gateway spoke") {
		t.Error("Print output incomplete")
	}
}

func TestPathDiversityQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Grid rows only: link-disjoint circuits must scale the aggregate.
		d := pathDiversity(QuickOptions(), 1500*sim.Millisecond, []string{"grid-4x4"}, []int{1, 4})
		g1, g4 := d.Points[0], d.Points[1]
		if g4.AggregatePS < 2*g1.AggregatePS {
			t.Errorf("grid aggregate did not scale: 1→%.1f/s, 4→%.1f/s", g1.AggregatePS, g4.AggregatePS)
		}
		return
	}
	d := PathDiversity(QuickOptions())
	get := func(topo string, k int) DiversityPoint {
		for _, p := range d.Points {
			if p.Topology == topo && p.Circuits == k {
				return p
			}
		}
		t.Fatalf("missing point %s k=%d", topo, k)
		return DiversityPoint{}
	}
	// Link-disjoint grid rows scale aggregate throughput with the circuit
	// count — the payoff of path diversity.
	g1, g4 := get("grid-4x4", 1), get("grid-4x4", 4)
	if g1.Feasible < 1 || g4.Feasible < 1 {
		t.Errorf("grid circuits infeasible: %v %v", g1.Feasible, g4.Feasible)
	}
	if g4.AggregatePS < 2*g1.AggregatePS {
		t.Errorf("grid aggregate did not scale: 1→%.1f/s, 4→%.1f/s", g1.AggregatePS, g4.AggregatePS)
	}
	// Waxman random demand must at least plan and deliver.
	for _, k := range []int{1, 2, 4} {
		if p := get("waxman-12", k); p.Feasible <= 0 || p.AggregatePS <= 0 {
			t.Errorf("waxman k=%d: feasible %.2f, aggregate %.2f/s", k, p.Feasible, p.AggregatePS)
		}
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "waxman-12") {
		t.Error("Print output incomplete")
	}
}

func TestEERSaturationQuick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// One overloaded point plus the oversized request: measured EER
		// must stay at or below the allocation and the oversized request
		// must be policed away.
		d := eerSaturation(QuickOptions(), 2*sim.Second, []int{3})
		for _, p := range d.Points {
			if p.MeasuredPS > d.AllocatedPS*1.02 {
				t.Errorf("measured %.2f pairs/s exceeds allocation %.2f", p.MeasuredPS, d.AllocatedPS)
			}
			if p.Oversized && (p.Rejected < 1 || p.MeasuredPS > 0) {
				t.Errorf("oversized request not policed: rejected=%.1f measured=%.2f", p.Rejected, p.MeasuredPS)
			}
		}
		return
	}
	d := EERSaturation(QuickOptions())
	if d.AllocatedPS <= 0 {
		t.Fatalf("allocation %.2f", d.AllocatedPS)
	}
	sawOversized := false
	for _, p := range d.Points {
		// The satellite assertion: the policed circuit's measured EER stays
		// at or below its allocation (small slack for window rounding).
		if p.MeasuredPS > d.AllocatedPS*1.02 {
			t.Errorf("measured %.2f pairs/s exceeds allocation %.2f (offered %.2f)",
				p.MeasuredPS, d.AllocatedPS, p.OfferedPS)
		}
		if p.Oversized {
			sawOversized = true
			if p.Rejected < 1 {
				t.Errorf("oversized request not policed: rejected=%.1f", p.Rejected)
			}
			if p.MeasuredPS > 0 {
				t.Errorf("oversized request delivered %.2f pairs/s", p.MeasuredPS)
			}
		} else if p.Rejected != 0 {
			t.Errorf("in-allocation load rejected: %.1f at offered %.2f", p.Rejected, p.OfferedPS)
		}
		if !p.Oversized && p.MeasuredPS <= 0 {
			t.Errorf("no deliveries at offered %.2f", p.OfferedPS)
		}
	}
	if !sawOversized {
		t.Error("no oversized point in the sweep")
	}
	var buf bytes.Buffer
	d.Print(&buf)
	if !strings.Contains(buf.String(), "at or below the MaxEER allocation") {
		t.Error("Print output incomplete")
	}
}

// TestMain doubles as the shard worker entrypoint: the shard-count
// invariance test re-execs this test binary behind runner.WorkerFlag.
func TestMain(m *testing.M) {
	runner.MaybeWorker()
	os.Exit(m.Run())
}

// TestShardCountInvariance extends worker-count invariance across the
// Backend seam: figure aggregates must be byte-identical whether replicas
// run on the in-process pool, sharded over 1 or 3 worker processes, or
// work-stolen across two shards with the last one throttled.
func TestShardCountInvariance(t *testing.T) {
	t.Parallel()
	render := func(b runner.Backend) string {
		o := QuickOptions()
		o.Backend = b
		var buf bytes.Buffer
		Fig5(o).Print(&buf)
		// A parameterised sweep exercises the params wire path.
		hubContention(o, 2*sim.Second, []int{2}, []bool{true}).Print(&buf)
		// Churn exercises the dynamic arrival/departure engine across the
		// Backend seam with a trimmed sweep.
		churn(o, churnParams{Horizon: 2 * sim.Second, Holds: []sim.Duration{sim.Second}, Circuits: 4}).Print(&buf)
		if !testing.Short() {
			Fig9(o).Print(&buf)
			EERSaturation(o).Print(&buf)
			// Multipath exercises k-candidate placement and both allocation
			// policies across the Backend seam.
			multipath(o, multipathParams{Horizon: 2 * sim.Second, Pairs: 6}).Print(&buf)
		}
		return buf.String()
	}
	backends := []struct {
		name string
		b    runner.Backend
	}{
		{"pool", nil},
		{"shards-1", runner.Fleet{Shards: 1}},
		{"shards-3", runner.Fleet{Shards: 3}},
		{"fleet-2", runner.Fleet{Shards: 2, Throttle: 10 * time.Millisecond}},
	}
	want := render(backends[0].b)
	for _, tc := range backends[1:] {
		if got := render(tc.b); got != want {
			t.Fatalf("%s produced different aggregates:\n--- pool ---\n%s\n--- %s ---\n%s",
				tc.name, want, tc.name, got)
		}
	}
}

// TestWorkerCountInvariance is the runner's end-to-end determinism proof:
// the same seed must render byte-identical figure aggregates no matter how
// many workers share the replicas.
func TestWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	render := func(workers int) string {
		o := QuickOptions()
		o.Workers = workers
		var buf bytes.Buffer
		Fig5(o).Print(&buf)
		if !testing.Short() {
			TopologySweep(o).Print(&buf)
		}
		return buf.String()
	}
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	want := render(counts[0])
	for _, w := range counts[1:] {
		if got := render(w); got != want {
			t.Fatalf("workers=%d produced different aggregates:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				w, want, w, got)
		}
	}
}

func TestWriteTables(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	WriteTables(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Two-qubit gate", "Visibility", "0.998", "0.992"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
}

func TestHelpers(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		runs  int
		quick bool
		want  int
	}{{-2, false, 1}, {0, false, 1}, {2, false, 2}, {10, false, 3}, {10, true, 1}} {
		if got := (Options{Runs: tc.runs, Quick: tc.quick}).replicas(); got != tc.want {
			t.Errorf("Runs=%d Quick=%v: replicas() = %d, want %d", tc.runs, tc.quick, got, tc.want)
		}
	}
	var buf bytes.Buffer
	header(&buf, "T")
	if buf.String() != "\n== T ==\n" {
		t.Errorf("header = %q", buf.String())
	}
}

// TestRunsBelowOne: Runs < 1 counts as one replica, so Fig. 5 pools one
// sample batch instead of dividing by zero, and a capped sweep still
// reports its points.
func TestRunsBelowOne(t *testing.T) {
	t.Parallel()
	if d := Fig5(Options{Quick: true}); len(d.Samples) < 200 {
		t.Errorf("Fig5 with Runs 0: %d samples, want one 200-sample batch", len(d.Samples))
	}
	d := hubContention(Options{Seed: 1}, 1500*sim.Millisecond, []int{1}, []bool{true})
	if len(d.Points) != 1 || d.Points[0].AggregatePS <= 0 {
		t.Errorf("hub with Runs 0: points %+v, want one delivering point", d.Points)
	}
}

// sweepRecorder is a Backend that records each sweep's request and
// answers with no results, so a figure aggregates zero values without
// running a replica.
type sweepRecorder struct{ reqs []runner.ExecRequest }

func (r *sweepRecorder) Execute(req runner.ExecRequest) ([][]byte, error) {
	r.reqs = append(r.reqs, req)
	return make([][]byte, req.Replicas), nil
}

// TestSweepWire checks every declared sweep's wire job: a worker holding
// only the payload rebuilds the parent's job count from the quick params,
// and rejects an unknown figure, unknown fields, trailing bytes and an
// out-of-range job index.
func TestSweepWire(t *testing.T) {
	t.Parallel()
	rec := &sweepRecorder{}
	o := QuickOptions()
	o.Backend = rec
	Fig5(o)
	Fig8(o)
	Fig9(o)
	Fig10AB(o)
	Fig10C(o)
	TopologySweep(o)
	HubContention(o)
	PathDiversity(o)
	EERSaturation(o)
	Churn(o)
	City(o)
	Multipath(o)
	if len(rec.reqs) != len(sweeps) {
		t.Fatalf("%d sweeps dispatched, %d declared", len(rec.reqs), len(sweeps))
	}
	for _, req := range rec.reqs {
		var j sweepJob[json.RawMessage]
		if err := json.Unmarshal(req.Payload, &j); err != nil {
			t.Fatal(err)
		}
		if sweeps[j.Fig] == nil {
			t.Errorf("dispatched sweep %q is not declared", j.Fig)
			continue
		}
		jobs, _, err := decodeSweepJob(req.Payload)
		if err != nil || jobs != req.Replicas {
			t.Errorf("%s: worker rebuilt %d jobs (err %v), parent dispatched %d", j.Fig, jobs, err, req.Replicas)
		}
		reencode := func(fig string, params json.RawMessage) []byte {
			b, err := json.Marshal(sweepJob[json.RawMessage]{Fig: fig, Runs: j.Runs, Params: params})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		for _, bad := range []struct {
			name    string
			payload []byte
			i       int
		}{
			{"unknown figure", reencode("nosuch", j.Params), 0},
			{"unknown job field", append([]byte(`{"Extra":1,`), req.Payload[1:]...), 0},
			{"unknown params field", reencode(j.Fig, append([]byte(`{"Extra":1,`), j.Params[1:]...)), 0},
			{"trailing bytes", append(append([]byte{}, req.Payload...), " {}"...), 0},
			{"index past the end", req.Payload, req.Replicas},
			{"negative index", req.Payload, -1},
		} {
			if _, err := runSweepJob(bad.payload, bad.i, 1); err == nil {
				t.Errorf("%s: %s accepted", j.Fig, bad.name)
			}
		}
	}
}

func TestChurnQuick(t *testing.T) {
	t.Parallel()
	o := QuickOptions()
	var p churnParams
	if testing.Short() {
		p = churnParams{Horizon: 2 * sim.Second, Holds: []sim.Duration{sim.Second}, Circuits: 4}
	} else {
		p = churnParams{Horizon: 4 * sim.Second, Holds: []sim.Duration{sim.Second, 5 * sim.Second / 2}, Circuits: 6}
	}
	d := churn(o, p)
	if len(d.Points) != 4*len(p.Holds) {
		t.Fatalf("point count = %d, want %d", len(d.Points), 4*len(p.Holds))
	}
	if d.DemandPS <= 0 {
		t.Fatalf("demand = %v", d.DemandPS)
	}
	var refitDeliv, staticDeliv float64
	for _, pt := range d.Points {
		if pt.Admitted+pt.Rejected > float64(pt.Offered) {
			t.Errorf("%s hold=%.1f static=%v: admitted %.1f + rejected %.1f exceeds offered %d",
				pt.Topology, pt.HoldS, pt.Static, pt.Admitted, pt.Rejected, pt.Offered)
		}
		if pt.Admitted <= 0 {
			t.Errorf("%s hold=%.1f static=%v admitted nothing", pt.Topology, pt.HoldS, pt.Static)
		}
		if pt.Static && pt.Rejected != 0 {
			t.Errorf("static allocation rejected %.1f arrivals; it admits everything", pt.Rejected)
		}
		if pt.Admitted > 0 && pt.Deliv <= 0 {
			t.Errorf("%s hold=%.1f static=%v admitted %.1f circuits but delivered nothing",
				pt.Topology, pt.HoldS, pt.Static, pt.Admitted)
		}
		if pt.Static {
			staticDeliv += pt.Deliv
		} else {
			refitDeliv += pt.Deliv
		}
	}
	if refitDeliv <= 0 || staticDeliv <= 0 {
		t.Fatalf("empty sweep: refit=%v static=%v", refitDeliv, staticDeliv)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	out := buf.String()
	for _, want := range []string{"re-fit", "static", "Circuit churn"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q", want)
		}
	}
}

// TestMultipathQuick pins the placement study's headline claim: k=3
// model-weighted placement admits strictly more circuits than k=1
// count-split (or at least as many at a higher aggregate EER) on both
// testbeds, and the crafted grid load's admitted count rises with k.
func TestMultipathQuick(t *testing.T) {
	t.Parallel()
	o := QuickOptions()
	p := multipathParams{Horizon: 2 * sim.Second, Pairs: 16}
	d := multipath(o, p)
	if len(d.Points) != 12 {
		t.Fatalf("point count = %d, want 12", len(d.Points))
	}
	point := func(topo string, k int, model bool) MultipathPoint {
		for _, pt := range d.Points {
			if pt.Topology == topo && pt.K == k && pt.Model == model {
				return pt
			}
		}
		t.Fatalf("no point for %s k=%d model=%v", topo, k, model)
		return MultipathPoint{}
	}
	for _, topo := range []string{"grid-4x4", "waxman-12"} {
		base := point(topo, 1, false)
		best := point(topo, 3, true)
		if base.Admitted <= 0 {
			t.Errorf("%s k=1 count-split admitted nothing", topo)
		}
		better := best.Admitted > base.Admitted ||
			(best.Admitted == base.Admitted && best.AggEER > base.AggEER)
		if !better {
			t.Errorf("%s: k=3 model-weighted (admitted %.1f, agg %.2f) does not beat k=1 count-split (admitted %.1f, agg %.2f)",
				topo, best.Admitted, best.AggEER, base.Admitted, base.AggEER)
		}
		for _, pt := range d.Points {
			if pt.Topology == topo && pt.Admitted+pt.Rejected > float64(pt.Offered) {
				t.Errorf("%s k=%d model=%v: admitted %.1f + rejected %.1f exceeds offered %d",
					topo, pt.K, pt.Model, pt.Admitted, pt.Rejected, pt.Offered)
			}
		}
	}
	// The crafted grid load is seed-independent: admission there is exact.
	for _, model := range []bool{false, true} {
		g1, g2, g3 := point("grid-4x4", 1, model), point("grid-4x4", 2, model), point("grid-4x4", 3, model)
		if !(g1.Admitted < g2.Admitted && g2.Admitted < g3.Admitted) {
			t.Errorf("grid admitted not rising with k (model=%v): %.1f, %.1f, %.1f",
				model, g1.Admitted, g2.Admitted, g3.Admitted)
		}
		if g1.Rerouted != 0 || g3.Rerouted == 0 {
			t.Errorf("grid rerouted counts wrong (model=%v): k=1 %.1f (want 0), k=3 %.1f (want > 0)",
				model, g1.Rerouted, g3.Rerouted)
		}
	}
	var buf bytes.Buffer
	d.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Multipath placement", "model", "count", "re-routes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q", want)
		}
	}
}

// Benchmarks: one per paper table/figure plus ablation benches for the
// design choices DESIGN.md calls out. Each benchmark runs a reduced version
// of the corresponding experiment end to end (full protocol stack on the
// discrete-event simulator) and reports domain metrics alongside ns/op:
//
//	go test -bench=. -benchmem
//
// The full-size series are regenerated by cmd/figures. The file lives in a
// root test-only package (there are no non-test files at the module root)
// so `go test ./...` builds and runs it; root_test.go keeps the harness
// itself under test.
package qnp

import (
	"fmt"
	"math/rand"
	"testing"

	"qnp/internal/experiments"
	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/internal/werner"
	"qnp/qnet"
)

func benchOpts(i int) experiments.Options {
	o := experiments.QuickOptions()
	o.Seed = runner.DeriveSeed(int64(i), 1)
	return o
}

// BenchmarkTable1Parameters exercises the Table 1/2 parameter plumbing (the
// full tables are validated by unit tests and printed by cmd/figures).
func BenchmarkTable1Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTables(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFig5LinkPairCDF regenerates the link-pair generation CDF.
func BenchmarkFig5LinkPairCDF(b *testing.B) {
	var meanMS float64
	for i := 0; i < b.N; i++ {
		d := experiments.Fig5(benchOpts(i))
		meanMS = d.MeanMS
	}
	b.ReportMetric(meanMS, "meanMs")
}

// BenchmarkFig8Latency regenerates the request-latency panels (reduced).
func BenchmarkFig8Latency(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		d := experiments.Fig8(benchOpts(i))
		pts = len(d.Points)
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFig9Saturation regenerates the latency-vs-throughput curve.
func BenchmarkFig9Saturation(b *testing.B) {
	var maxTP float64
	for i := 0; i < b.N; i++ {
		d := experiments.Fig9(benchOpts(i))
		for _, p := range d.Points {
			if p.ThroughputPS > maxTP {
				maxTP = p.ThroughputPS
			}
		}
	}
	b.ReportMetric(maxTP, "maxPairs/s")
}

// BenchmarkFig10Decoherence regenerates the cutoff-vs-oracle sweep.
func BenchmarkFig10Decoherence(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		d := experiments.Fig10AB(benchOpts(i))
		pts = len(d.Points)
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFig10MessageDelay regenerates the message-delay sweep.
func BenchmarkFig10MessageDelay(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		d := experiments.Fig10C(benchOpts(i))
		pts = len(d.Points)
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFig11NearTerm regenerates the near-term hardware staircase.
func BenchmarkFig11NearTerm(b *testing.B) {
	var meanF float64
	for i := 0; i < b.N; i++ {
		d := experiments.Fig11(benchOpts(i))
		meanF = d.MeanFid
	}
	b.ReportMetric(meanF, "meanFidelity")
}

// BenchmarkTopologySweep regenerates the topology sweep: the same stack
// driven over rings, stars, grids and Waxman graphs.
func BenchmarkTopologySweep(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		d := experiments.TopologySweep(benchOpts(i))
		pts = len(d.Points)
	}
	b.ReportMetric(float64(pts), "topologies")
}

// placementPairs are the placement benches' probe targets: short corridor
// hops to 14-hop cross-grid routes on a 15×15 grid (nodes n<y·15+x>).
var placementPairs = [][2]string{
	{"n0", "n4"}, {"n0", "n64"}, {"n16", "n46"}, {"n2", "n112"},
	{"n30", "n94"}, {"n60", "n120"}, {"n0", "n112"}, {"n32", "n96"},
}

// placementGrid builds the placement benches' 15×15 admission-controlled,
// model-weighted grid.
func placementGrid() *qnet.Network {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	cfg.Alloc = qnet.AllocModelWeighted
	return qnet.Grid(cfg, 15, 15)
}

// installPlacementBackground installs background circuits through the
// probed region, so probes score against live membership.
func installPlacementBackground(b *testing.B, net *qnet.Network) {
	for i, p := range [][2]string{{"n0", "n32"}, {"n2", "n62"}, {"n30", "n34"}, {"n16", "n64"}} {
		if _, _, err := net.Controller.Place(qnet.PlacementRequest{
			ID: fmt.Sprintf("bg%d", i), Src: p[0], Dst: p[1],
			Fidelity: 0.8, Cutoff: qnet.CutoffShort, K: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// probePlacements runs one k=3 probe per placementPairs entry and returns
// the last decision's model EER.
func probePlacements(b *testing.B, net *qnet.Network) float64 {
	var model float64
	for _, p := range placementPairs {
		dec, _, err := net.Controller.Place(qnet.PlacementRequest{
			Src: p[0], Dst: p[1], Fidelity: 0.8, Cutoff: qnet.CutoffShort,
			K: 3, Probe: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		model = dec.ModelEER
	}
	return model
}

// BenchmarkPlacementGrid isolates the placement path itself — Yen
// k-shortest candidate enumeration plus model scoring, no physics run —
// with k=3 probes on a 15×15 grid whose links already carry installed
// members, so every probe pays the contended-scoring cost. The controller
// is reused across ops, so after the first op every candidate's budget is
// a memo hit; BenchmarkPlacementGridCold measures the misses.
func BenchmarkPlacementGrid(b *testing.B) {
	net := placementGrid()
	installPlacementBackground(b, net)
	b.ResetTimer()
	var model float64
	for i := 0; i < b.N; i++ {
		model = probePlacements(b, net)
	}
	b.ReportMetric(float64(len(placementPairs)), "placements/op")
	b.ReportMetric(model, "modelEER")
}

// BenchmarkPlacementGridCold is BenchmarkPlacementGrid on a fresh network
// per op: the background installs and probes start from an empty budget
// memo, so every distinct (hop count, target, cutoff) budget is computed
// once per op by the worst-case bisection. Building the network is not
// timed.
func BenchmarkPlacementGridCold(b *testing.B) {
	var model float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := placementGrid()
		b.StartTimer()
		installPlacementBackground(b, net)
		model = probePlacements(b, net)
	}
	b.ReportMetric(float64(len(placementPairs)), "placements/op")
	b.ReportMetric(model, "modelEER")
}

// --- Physics engines ---------------------------------------------------------

// BenchmarkWernerFig9 regenerates the latency-vs-throughput curve on the
// Werner scalar engine; its exact twin is BenchmarkFig9Saturation, and the
// two render identical curves (the engines share event timelines — only
// the physics under them differs).
func BenchmarkWernerFig9(b *testing.B) {
	var maxTP float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(i)
		o.Physics = qnet.PhysicsWerner
		d := experiments.Fig9(o)
		for _, p := range d.Points {
			if p.ThroughputPS > maxTP {
				maxTP = p.ThroughputPS
			}
		}
	}
	b.ReportMetric(maxTP, "maxPairs/s")
}

// BenchmarkSwapHeavyPhysics pits the two engines against each other on the
// physics hot path itself: herald two link pairs, swap them, read out the
// merged pair's fidelity. The exact engine pays an exact noisy Bell-state
// measurement per swap; the scalar engine a handful of float operations —
// this pair of benches records that gap. Exact scenarios stay
// physics-bound (SwapW and DecohereW hold about half of fig9's CPU), but
// the event loop, link layer and protocol cost the same under both
// engines, so the end-to-end gap is smaller (about 3.7× per fig9 replica);
// this bench isolates the physics tier.
func BenchmarkSwapHeavyPhysics(b *testing.B) {
	params := hardware.Simulation()
	link := hardware.LabLink()
	const alpha = 0.1
	model := link.Model(params, alpha)
	scfg := params.SwapConfig()
	b.Run("exact", func(b *testing.B) {
		ws := linalg.NewWorkspace()
		rng := rand.New(rand.NewSource(1))
		swap := func() float64 {
			rho1, i1 := link.GenerateW(ws, params, alpha, rng)
			rho2, i2 := link.GenerateW(ws, params, alpha, rng)
			res := quantum.SwapW(ws, rho1, rho2, scfg, rng)
			f := quantum.Fidelity(res.Rho, quantum.Combine(i1, i2, res.Outcome))
			ws.Put(rho1)
			ws.Put(rho2)
			ws.Put(res.Rho)
			return f
		}
		// One untimed swap fills the workspace pool, so allocs/op records
		// the steady state even at a handful of iterations.
		f := swap()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f = swap()
		}
		b.ReportMetric(f, "fidelity")
	})
	b.Run("werner", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer() // the RNG's setup is not part of a swap
		var f float64
		for i := 0; i < b.N; i++ {
			w1, i1 := werner.Generate(model.Fidelity(), rng)
			w2, i2 := werner.Generate(model.Fidelity(), rng)
			sres := werner.Swap(w1, w2, scfg, rng)
			_ = quantum.Combine(i1, i2, sres.Outcome)
			f = werner.Fidelity(sres.W)
		}
		b.ReportMetric(f, "fidelity")
	})
}

// --- Ablations --------------------------------------------------------------

// deliverPairs runs a 3-node circuit for `pairs` deliveries and returns the
// simulated seconds taken. Used by the ablation benches below.
func deliverPairs(seed int64, policy qnet.CutoffPolicy, pairs int) float64 {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	net := qnet.Chain(cfg, 3)
	vc, err := net.Establish("ab", "n0", "n2", 0.85, &qnet.CircuitOptions{Policy: policy})
	if err != nil {
		panic(err)
	}
	got := 0
	vc.HandleHead(qnet.Handlers{AutoConsume: true, OnPair: func(qnet.Delivered) { got++ }})
	vc.HandleTail(qnet.Handlers{AutoConsume: true})
	if err := vc.Submit(qnet.Request{ID: "r", Type: qnet.Keep, NumPairs: pairs}); err != nil {
		panic(err)
	}
	start := net.Sim.Now()
	for got < pairs {
		if !net.Sim.Step() {
			break
		}
	}
	return net.Sim.Now().Sub(start).Seconds()
}

// BenchmarkAblationCutoffPolicy compares the simulated time to deliver 30
// pairs under each cutoff policy — the short cutoff's rate advantage and
// the cost of running with none.
func BenchmarkAblationCutoffPolicy(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy qnet.CutoffPolicy
	}{{"long", qnet.CutoffLong}, {"short", qnet.CutoffShort}, {"none", qnet.CutoffNone}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var simS float64
			for i := 0; i < b.N; i++ {
				simS = deliverPairs(int64(i)+1, tc.policy, 30)
			}
			b.ReportMetric(simS, "simSeconds")
		})
	}
}

// BenchmarkAblationAggregation compares one aggregated request for 2N pairs
// against two N-pair requests sharing the circuit — aggregation means the
// swap nodes never distinguish them, so the totals should be close.
func BenchmarkAblationAggregation(b *testing.B) {
	run := func(seed int64, split bool) float64 {
		cfg := qnet.DefaultConfig()
		cfg.Seed = seed
		net := qnet.Chain(cfg, 3)
		vc, err := net.Establish("ag", "n0", "n2", 0.85, nil)
		if err != nil {
			panic(err)
		}
		const total = 30
		got := 0
		vc.HandleHead(qnet.Handlers{AutoConsume: true, OnPair: func(qnet.Delivered) { got++ }})
		vc.HandleTail(qnet.Handlers{AutoConsume: true})
		if split {
			for k := 0; k < 2; k++ {
				if err := vc.Submit(qnet.Request{
					ID: qnet.RequestID(fmt.Sprintf("r%d", k)), Type: qnet.Keep, NumPairs: total / 2,
				}); err != nil {
					panic(err)
				}
			}
		} else if err := vc.Submit(qnet.Request{ID: "r", Type: qnet.Keep, NumPairs: total}); err != nil {
			panic(err)
		}
		start := net.Sim.Now()
		for got < total {
			if !net.Sim.Step() {
				break
			}
		}
		return net.Sim.Now().Sub(start).Seconds()
	}
	for _, tc := range []struct {
		name  string
		split bool
	}{{"one-request", false}, {"two-aggregated", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var simS float64
			for i := 0; i < b.N; i++ {
				simS = run(int64(i)+1, tc.split)
			}
			b.ReportMetric(simS, "simSeconds")
		})
	}
}

// BenchmarkAblationMessageDelayLaziness shows that lazy tracking keeps raw
// delivery rates insensitive to moderate control-plane delays: quantum
// operations never block on messages.
func BenchmarkAblationMessageDelayLaziness(b *testing.B) {
	run := func(seed int64, delay sim.Duration) int {
		cfg := qnet.DefaultConfig()
		cfg.Seed = seed
		net := qnet.Chain(cfg, 3)
		vc, err := net.Establish("lz", "n0", "n2", 0.85, nil)
		if err != nil {
			panic(err)
		}
		got := 0
		vc.HandleHead(qnet.Handlers{AutoConsume: true, OnPair: func(qnet.Delivered) { got++ }})
		vc.HandleTail(qnet.Handlers{AutoConsume: true})
		if err := vc.Submit(qnet.Request{ID: "r", Type: qnet.Keep, NumPairs: 0}); err != nil {
			panic(err)
		}
		net.Classical.SetProcessingDelay(delay)
		net.Run(5 * sim.Second)
		return got
	}
	for _, tc := range []struct {
		name  string
		delay sim.Duration
	}{{"no-delay", 0}, {"1ms-delay", sim.Millisecond}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				pairs = run(int64(i)+1, tc.delay)
			}
			b.ReportMetric(float64(pairs)/5, "pairs/simSec")
		})
	}
}

// BenchmarkSimulatorCore measures the raw event-loop rate with a busy
// protocol workload (the dumbbell under load), in simulated-event terms.
func BenchmarkSimulatorCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := qnet.DefaultConfig()
		cfg.Seed = int64(i) + 1
		net := qnet.Dumbbell(cfg)
		vc, err := net.Establish("c", "A0", "B0", 0.8, nil)
		if err != nil {
			b.Fatal(err)
		}
		vc.HandleHead(qnet.Handlers{AutoConsume: true})
		vc.HandleTail(qnet.Handlers{AutoConsume: true})
		if err := vc.Submit(qnet.Request{ID: "r", Type: qnet.Keep, NumPairs: 0}); err != nil {
			b.Fatal(err)
		}
		net.Run(2 * sim.Second)
		b.ReportMetric(float64(net.Sim.Processed()), "events")
	}
}

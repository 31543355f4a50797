package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/linklayer"
	"qnp/internal/quantum"
	"qnp/internal/sim"
	"qnp/internal/stats"
	"qnp/internal/werner"
	"qnp/qnet"
)

// ladderRow is one microbenchmark of the ladder: the metrics it reports and
// the function measuring them, which returns their values in that order.
type ladderRow struct {
	metrics []metricSpec
	run     func(seed int64) ([]float64, error)
}

// ladderRows time calls into each layer's exported functions, one row per
// layer, outside any workload.
var ladderRows = []ladderRow{
	{[]metricSpec{{"sim.ns_per_event", "ns"}, {"sim.allocs_per_event", "allocs"}}, ladderSim},
	{[]metricSpec{{"physics.exact.ns_per_swap", "ns"}, {"physics.exact.allocs_per_swap", "allocs"}, {"physics.werner.ns_per_swap", "ns"}}, ladderPhysics},
	{[]metricSpec{{"hardware.ns_per_link_model", "ns"}}, ladderHardware},
	{[]metricSpec{{"linklayer.ns_per_round", "ns"}}, ladderLinkLayer},
	{[]metricSpec{{"core.ns_per_pair", "ns"}}, ladderCore},
	{[]metricSpec{{"signaling.ns_per_install", "ns"}}, ladderSignaling},
	{[]metricSpec{{"routing.place_p50_us", "us"}, {"routing.place_p99_us", "us"}, {"routing.place_k3_p50_us", "us"}}, ladderRouting},
	{[]metricSpec{{"stats.ns_per_add", "ns"}}, ladderStats},
}

// ladderMetrics are every ladder row's metrics.
var ladderMetrics = func() []metricSpec {
	var specs []metricSpec
	for _, r := range ladderRows {
		specs = append(specs, r.metrics...)
	}
	return specs
}()

// ladder runs every row on inputs derived from seed.
func ladder(seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range ladderRows {
		vals, err := r.run(seed)
		if err != nil {
			return out, err
		}
		for i, m := range r.metrics {
			out[m.name] = vals[i]
		}
	}
	return out, nil
}

// timeOps calls op n times and returns host nanoseconds and heap
// allocations per call.
func timeOps(n int, op func()) (ns, allocs float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// ladderSim: one Schedule plus one Step with 1000 events pending.
func ladderSim(seed int64) ([]float64, error) {
	const pending, n = 1000, 200000
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Duration, 4096)
	for i := range delays {
		delays[i] = sim.Duration(1 + rng.Intn(1_000_000))
	}
	s := sim.New(seed)
	noop := func() {}
	for i := 0; i < pending; i++ {
		s.Schedule(delays[i%len(delays)], noop)
	}
	i := 0
	ns, allocs := timeOps(n, func() {
		s.Schedule(delays[i%len(delays)], noop)
		s.Step()
		i++
	})
	if s.Pending() != pending {
		return nil, fmt.Errorf("sim ladder: %d events pending, want %d", s.Pending(), pending)
	}
	return []float64{ns, allocs}, nil
}

// ladderPhysics: herald two link pairs, swap them and read the result's
// fidelity, on the exact engine and on the Werner engine.
func ladderPhysics(seed int64) ([]float64, error) {
	params := hardware.Simulation()
	link := hardware.LabLink()
	const alpha = 0.1
	scfg := params.SwapConfig()
	ws := linalg.NewWorkspace()
	rng := rand.New(rand.NewSource(seed))
	var f float64
	exactNS, exactAllocs := timeOps(5000, func() {
		rho1, i1 := link.GenerateW(ws, params, alpha, rng)
		rho2, i2 := link.GenerateW(ws, params, alpha, rng)
		res := quantum.SwapW(ws, rho1, rho2, scfg, rng)
		f = quantum.Fidelity(res.Rho, quantum.Combine(i1, i2, res.Outcome))
		ws.Put(rho1)
		ws.Put(rho2)
		ws.Put(res.Rho)
	})
	modelF := link.Model(params, alpha).Fidelity()
	var fw float64
	wernerNS, _ := timeOps(1000000, func() {
		w1, _ := werner.Generate(modelF, rng)
		w2, _ := werner.Generate(modelF, rng)
		fw = werner.Fidelity(werner.Swap(w1, w2, scfg, rng).W)
	})
	if !(f > 0.25 && fw > 0.25) {
		return nil, fmt.Errorf("physics ladder: swapped fidelities %.3f (exact), %.3f (werner) are not entangled", f, fw)
	}
	return []float64{exactNS, exactAllocs, wernerNS}, nil
}

// ladderHardware: invert the link model for a fidelity and evaluate it.
func ladderHardware(seed int64) ([]float64, error) {
	params := hardware.Simulation()
	link := hardware.LabLink()
	rng := rand.New(rand.NewSource(seed))
	targets := make([]float64, 64)
	for i := range targets {
		targets[i] = 0.8 + 0.15*rng.Float64()
	}
	i := 0
	var bad float64
	ns, _ := timeOps(500, func() {
		f := targets[i%len(targets)]
		alpha, ok := link.AlphaForFidelity(params, f)
		if got := link.Model(params, alpha).Fidelity(); !ok || got < f-1e-6 {
			bad = f
		}
		i++
	})
	if bad != 0 {
		return nil, fmt.Errorf("hardware ladder: link model misses fidelity %.4f", bad)
	}
	return []float64{ns}, nil
}

// ladderLinkLayer: a fresh engine between two devices with one registered
// request, stepped until it has delivered n pairs.
func ladderLinkLayer(seed int64) ([]float64, error) {
	const n = 20000
	delivered := 0
	ns, _ := timeOps(1, func() {
		s := sim.New(seed)
		params := hardware.Simulation()
		a, b := device.New(s, "a", params), device.New(s, "b", params)
		name := linklayer.LinkName("a", "b")
		a.AddCommQubits(name, 2)
		b.AddCommQubits(name, 2)
		e := linklayer.NewEngine(s, name, hardware.LabLink(), a, b)
		release := func(dev *device.Device, side int) linklayer.Consumer {
			return func(d linklayer.Delivery) {
				if side == 0 {
					delivered++
				}
				dev.Free(d.Pair.Half(side))
			}
		}
		if e.Register("a", "l", 0.85, 100, release(a, 0)) != nil || e.Register("b", "l", 0.85, 100, release(b, 1)) != nil {
			return
		}
		for delivered < n && s.Step() {
		}
	})
	if delivered != n {
		return nil, fmt.Errorf("linklayer ladder: delivered %d of %d pairs", delivered, n)
	}
	return []float64{ns / n}, nil
}

// ladderCore: a Werner three-node chain delivering n end-to-end pairs
// through one swap each, timed from the request to the last delivery.
func ladderCore(seed int64) ([]float64, error) {
	const n = 20000
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Physics = qnet.PhysicsWerner
	net := qnet.Chain(cfg, 3)
	vc, err := net.Establish("c", "n0", "n2", 0.85, nil)
	if err != nil {
		return nil, fmt.Errorf("core ladder: %w", err)
	}
	got := 0
	vc.HandleHead(qnet.Handlers{AutoConsume: true, OnPair: func(qnet.Delivered) { got++ }})
	vc.HandleTail(qnet.Handlers{AutoConsume: true})
	ns, _ := timeOps(1, func() {
		if err = vc.Submit(qnet.Request{ID: "r", Type: qnet.Keep, NumPairs: n}); err != nil {
			return
		}
		for got < n && net.Sim.Step() {
		}
	})
	if err != nil || got != n {
		return nil, fmt.Errorf("core ladder: delivered %d of %d pairs (%v)", got, n, err)
	}
	return []float64{ns / n}, nil
}

// ladderSignaling: install a hand-built plan on a five-node chain (SETUP
// out, CONFIRM back) and tear it down again (TEARDOWN out), bypassing
// routing.
func ladderSignaling(seed int64) ([]float64, error) {
	const n = 2000
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	net := qnet.Chain(cfg, 5)
	dec, _, err := net.Controller.Place(qnet.PlacementRequest{
		Src: "n0", Dst: "n4", Fidelity: 0.85, Cutoff: qnet.CutoffShort, Probe: true,
	})
	if err != nil {
		return nil, fmt.Errorf("signaling ladder: %w", err)
	}
	i := 0
	ns, _ := timeOps(n, func() {
		vc, e := net.EstablishPlan(qnet.CircuitID(fmt.Sprintf("s%d", i)), dec.Plan)
		i++
		if e != nil {
			err = e
			return
		}
		vc.Teardown()
		// The nodes' housekeeping timers never drain the queue: run just
		// long enough for the TEARDOWN to cross the chain.
		net.Run(sim.Millisecond)
	})
	if err != nil {
		return nil, fmt.Errorf("signaling ladder: %w", err)
	}
	for _, id := range net.NodeIDs() {
		if _, ok := net.Node(id).Circuit(qnet.CircuitID(fmt.Sprintf("s%d", n-1))); ok {
			return nil, fmt.Errorf("signaling ladder: node %s still holds the torn-down circuit", id)
		}
	}
	return []float64{ns}, nil
}

// ladderRouting: per-probe latency of shortest-path placement on a fresh
// 10x10 grid (the city plant), and of k=3 placement on the contended 15x15
// grid of BenchmarkPlacementGrid.
func ladderRouting(seed int64) ([]float64, error) {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.EnforceEER = true
	grid := qnet.Grid(cfg, 10, 10)
	ids := grid.NodeIDs()
	rng := rand.New(rand.NewSource(seed))
	probe := func(net *qnet.Network, req qnet.PlacementRequest) (float64, error) {
		t0 := time.Now()
		_, _, err := net.Controller.Place(req)
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	// Probes between random node pairs, as city's arrivals draw them: the
	// longest paths cannot meet the fidelity target, and a refused probe is
	// timed like any other. 1000 probes leave ten beyond the p99.
	var lat []float64
	refused := 0
	for len(lat) < 1000 {
		i, j := rng.Intn(len(ids)), rng.Intn(len(ids))
		if i == j {
			continue
		}
		us, err := probe(grid, qnet.PlacementRequest{
			Src: ids[i], Dst: ids[j], Fidelity: 0.85, Cutoff: qnet.CutoffShort, Probe: true,
		})
		if err != nil {
			refused++
		}
		lat = append(lat, us)
	}
	if refused > len(lat)/2 {
		return nil, fmt.Errorf("routing ladder: %d of %d probes refused", refused, len(lat))
	}
	p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)

	cfg.Alloc = qnet.AllocModelWeighted
	big := qnet.Grid(cfg, 15, 15)
	for i, p := range [][2]string{{"n0", "n32"}, {"n2", "n62"}, {"n30", "n34"}, {"n16", "n64"}} {
		if _, _, err := big.Controller.Place(qnet.PlacementRequest{
			ID: fmt.Sprintf("bg%d", i), Src: p[0], Dst: p[1],
			Fidelity: 0.8, Cutoff: qnet.CutoffShort, K: 3,
		}); err != nil {
			return nil, fmt.Errorf("routing ladder: %w", err)
		}
	}
	pairs := [][2]string{
		{"n0", "n4"}, {"n0", "n64"}, {"n16", "n46"}, {"n2", "n112"},
		{"n30", "n94"}, {"n60", "n120"}, {"n0", "n112"}, {"n32", "n96"},
	}
	lat = lat[:0]
	for r := 0; r < 3; r++ {
		for _, p := range pairs {
			us, err := probe(big, qnet.PlacementRequest{
				Src: p[0], Dst: p[1], Fidelity: 0.8, Cutoff: qnet.CutoffShort, K: 3, Probe: true,
			})
			if err != nil {
				return nil, fmt.Errorf("routing ladder: %w", err)
			}
			lat = append(lat, us)
		}
	}
	return []float64{p50, p99, percentile(lat, 0.50)}, nil
}

// ladderStats: one streaming-aggregate Add, past the exact-sample buffer.
func ladderStats(seed int64) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	var agg stats.Agg
	i := 0
	ns, _ := timeOps(1000000, func() {
		agg.Add(xs[i%len(xs)])
		i++
	})
	if agg.Count != 1000000 {
		return nil, fmt.Errorf("stats ladder: aggregate holds %d samples", agg.Count)
	}
	return []float64{ns}, nil
}

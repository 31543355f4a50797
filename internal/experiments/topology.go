package experiments

import (
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// TopoPoint aggregates one topology's replicas in the sweep: the steady
// throughput and delivered fidelity of a circuit spanning the topology's
// diameter.
type TopoPoint struct {
	Topology string
	Nodes    int
	// Links and Hops are means over replicas — the Waxman graphs resample
	// their layout each replica, so these are fractional there.
	Links float64
	Hops  float64
	// FeasibleFrac is the fraction of replicas whose diameter circuit the
	// routing controller could plan at the target fidelity.
	FeasibleFrac float64
	PairsPS      float64
	MeanFid      float64
}

// TopoData is the topology sweep: the same protocol stack and hardware
// driven over chains, rings, stars, grids and Waxman random graphs.
type TopoData struct {
	Points   []TopoPoint
	HorizonS float64
	TargetF  float64
}

// topoScenario names a declarative topology the sweep drives.
type topoScenario struct {
	name  string
	nodes int
	topo  qnet.TopologySpec
}

func topoScenarios() []topoScenario {
	return []topoScenario{
		{"chain-3", 3, qnet.ChainTopo(3)},
		{"chain-5", 5, qnet.ChainTopo(5)},
		{"ring-6", 6, qnet.RingTopo(6)},
		{"star-6", 6, qnet.StarTopo(6)},
		{"grid-3x3", 9, qnet.GridTopo(3, 3)},
		{"waxman-10", 10, qnet.WaxmanTopo(10, 0.5, 0.4)},
	}
}

// topoResult is one replica's wire-friendly measurement.
type topoResult struct {
	Links, Hops int
	Feasible    bool
	PairsPS     float64
	MeanFid     float64
}

const topoTargetF = 0.85

// topoParams is the sweep's shape; the cells are topoScenarios().
type topoParams struct{ Horizon sim.Duration }

var topoSweep = &sweep[topoParams, topoScenario, topoResult]{
	fig:   "topo",
	cells: func(topoParams) []topoScenario { return topoScenarios() },
	run: func(p topoParams, sc topoScenario, _ int, seed int64) topoResult {
		return topoRun(seed, sc, p.Horizon)
	},
}

// topoRun measures one topology replica.
func topoRun(seed int64, sc topoScenario, horizon sim.Duration) topoResult {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	run, err := qnet.Scenario{
		Config:   cfg,
		Topology: sc.topo,
		Circuits: []qnet.CircuitSpec{{
			ID: "topo", Select: qnet.DiameterPair(), Fidelity: topoTargetF,
			Workload: qnet.ContinuousKeep{ID: "tp"},
			// Some shapes cannot plan a diameter circuit at this target:
			// that is the sweep's FeasibleFrac, not an error.
			Optional:       true,
			RecordFidelity: true,
		}},
		Horizon: horizon,
	}.Run()
	if err != nil {
		panic(err)
	}
	_, _, hops := run.Net.Diameter()
	res := topoResult{Links: run.Metrics.Links, Hops: hops}
	cm := run.Metrics.Circuit("topo")
	if !cm.Established {
		return res
	}
	res.Feasible = true
	// Mean over pair deliveries only (a Measure delivery records F=0).
	var fids runner.Stats
	fids.Add(cm.Fidelities...)
	res.PairsPS = float64(cm.Delivered) / horizon.Seconds()
	res.MeanFid = fids.Mean()
	return res
}

// TopologySweep drives a diameter-spanning circuit on each generator's
// output — the scenario-shape sweep the chain-only seed could not express.
// Every topology runs the identical hardware and protocol stack, so
// differences isolate what the graph shape does to end-to-end entanglement
// distribution (hop count, swap concentration at hubs, path diversity).
func TopologySweep(o Options) *TopoData {
	p := topoParams{Horizon: 10 * sim.Second}
	if o.Quick {
		p.Horizon = 3 * sim.Second
	}
	d := &TopoData{HorizonS: p.Horizon.Seconds(), TargetF: topoTargetF}
	scs, results := topoSweep.Run(o, p)
	for i, sc := range scs {
		var links, hops, feas, tp, mf runner.Stats
		for _, r := range results[i] {
			links.Add(float64(r.Links))
			hops.Add(float64(r.Hops))
			if r.Feasible {
				feas.Add(1)
				tp.Add(r.PairsPS)
				mf.Add(r.MeanFid)
			} else {
				feas.Add(0)
			}
		}
		d.Points = append(d.Points, TopoPoint{
			Topology: sc.name, Nodes: sc.nodes,
			Links: links.Mean(), Hops: hops.Mean(),
			FeasibleFrac: feas.Mean(), PairsPS: tp.Mean(), MeanFid: mf.Mean(),
		})
	}
	return d
}

// Print writes the sweep table.
func (d *TopoData) Print(w io.Writer) {
	header(w, fmt.Sprintf("Topology sweep — diameter circuit at F=%.2f, %.0f s horizon", d.TargetF, d.HorizonS))
	fmt.Fprintf(w, "%-10s %6s %6s %5s %9s %9s %9s\n",
		"topology", "nodes", "links", "hops", "feasible", "pairs/s", "mean F")
	for _, p := range d.Points {
		fmt.Fprintf(w, "%-10s %6d %6.1f %5.1f %9.2f %9.2f %9.3f\n",
			p.Topology, p.Nodes, p.Links, p.Hops, p.FeasibleFrac, p.PairsPS, p.MeanFid)
	}
}

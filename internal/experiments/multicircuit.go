package experiments

import (
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// The two multi-circuit workloads the chain/dumbbell-era harness could not
// express: hub contention on stars (every circuit's swaps land on one
// node) and path diversity on grids and Waxman graphs (circuits spread
// over link-disjoint routes). Both are plain Scenario declarations — the
// contention structure lives in the CircuitSpecs, not in bespoke wiring.

// HubPoint is one marker of the hub-contention study: k concurrent
// leaf-to-leaf circuits through a star's hub, either on disjoint spokes or
// fanning out of one shared gateway leaf.
type HubPoint struct {
	Circuits     int
	Shared       bool    // circuits share the gateway leaf's spoke
	AggregatePS  float64 // network-wide delivered pairs/s
	PerCircuitPS float64 // mean per-circuit pairs/s
	MinPS        float64 // slowest circuit's pairs/s (fairness floor)
	HubSwaps     float64 // mean swaps at the hub per second
	HubDiscards  float64 // mean cutoff discards at the hub per second
}

// HubData is the star hub-contention scenario set.
type HubData struct {
	Points   []HubPoint
	Leaves   int
	HorizonS float64
	TargetF  float64
}

// HubContention drives 1–4 concurrent two-hop circuits through a 9-node
// star's hub in two regimes. With disjoint leaf pairs every circuit has
// its own spokes and the hub merely accumulates all swap load — aggregate
// throughput scales with the circuit count. With all circuits fanning out
// of one gateway leaf they contend for that spoke's two communication
// qubits exactly like the dumbbell's bottleneck, and per-circuit
// throughput collapses as circuits join.
func HubContention(o Options) *HubData {
	horizon := 10 * sim.Second
	if o.Quick {
		horizon = 3 * sim.Second
	}
	return hubContention(o, horizon, []int{1, 2, 3, 4}, []bool{false, true})
}

const hubTargetF = 0.85

// hubParams is the hub sweep's shape, so trimmed -short sweeps shard
// exactly like the full figure.
type hubParams struct {
	Horizon sim.Duration
	Counts  []int
	Modes   []bool
}

type hubCell struct {
	circuits int
	shared   bool
}

// hubResult is one replica's wire-friendly measurement.
type hubResult struct {
	AggregatePS  float64
	MinPS        float64
	PerCircuitPS float64
	SwapsPS      float64
	DiscardsPS   float64
}

var hubSweep = &sweep[hubParams, hubCell, hubResult]{
	fig: "hub",
	cells: func(p hubParams) (cells []hubCell) {
		for _, shared := range p.Modes {
			for _, k := range p.Counts {
				cells = append(cells, hubCell{k, shared})
			}
		}
		return cells
	},
	run: func(p hubParams, c hubCell, _ int, seed int64) hubResult { return hubRun(seed, c, p.Horizon) },
}

// hubRun measures one hub-contention replica.
func hubRun(seed int64, j hubCell, horizon sim.Duration) hubResult {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	// Star-9: hub n0, leaves n1..n8. Disjoint pairs use separate
	// spokes; shared pairs all originate at the n1 gateway.
	disjoint := [][2]string{{"n1", "n2"}, {"n3", "n4"}, {"n5", "n6"}, {"n7", "n8"}}
	shared := [][2]string{{"n1", "n2"}, {"n1", "n3"}, {"n1", "n4"}, {"n1", "n5"}}
	pairs := disjoint
	if j.shared {
		pairs = shared
	}
	specs := make([]qnet.CircuitSpec, j.circuits)
	for i := 0; i < j.circuits; i++ {
		specs[i] = qnet.CircuitSpec{
			ID: qnet.CircuitID(fmt.Sprintf("c%d", i)), Src: pairs[i][0], Dst: pairs[i][1],
			Fidelity: hubTargetF, Policy: qnet.CutoffShort,
			Workload: qnet.ContinuousKeep{},
		}
	}
	res, err := qnet.Scenario{
		Name:     fmt.Sprintf("hub-%d", j.circuits),
		Config:   cfg,
		Topology: qnet.StarTopo(9),
		Circuits: specs,
		Horizon:  horizon,
	}.Run()
	if err != nil {
		panic(err)
	}
	m := res.Metrics
	out := hubResult{AggregatePS: m.AggregateEER()}
	var per runner.Stats
	out.MinPS = -1
	for _, cm := range m.Circuits {
		eer := cm.EER(m.Start, m.End)
		per.Add(eer)
		if out.MinPS < 0 || eer < out.MinPS {
			out.MinPS = eer
		}
	}
	out.PerCircuitPS = per.Mean()
	hub := m.NodeStats["n0"]
	out.SwapsPS = float64(hub.Swaps) / horizon.Seconds()
	out.DiscardsPS = float64(hub.Discards) / horizon.Seconds()
	return out
}

// hubContention is the parameterised core, so -short tests can trim the
// grid without duplicating the scenario.
func hubContention(o Options, horizon sim.Duration, counts []int, modes []bool) *HubData {
	cells, results := hubSweep.Run(o, hubParams{Horizon: horizon, Counts: counts, Modes: modes})
	d := &HubData{Leaves: 8, HorizonS: horizon.Seconds(), TargetF: hubTargetF}
	for i, c := range cells {
		var agg, per, min, sw, disc runner.Stats
		for _, r := range results[i] {
			agg.Add(r.AggregatePS)
			per.Add(r.PerCircuitPS)
			min.Add(r.MinPS)
			sw.Add(r.SwapsPS)
			disc.Add(r.DiscardsPS)
		}
		d.Points = append(d.Points, HubPoint{
			Circuits: c.circuits, Shared: c.shared,
			AggregatePS: agg.Mean(), PerCircuitPS: per.Mean(),
			MinPS: min.Mean(), HubSwaps: sw.Mean(), HubDiscards: disc.Mean(),
		})
	}
	return d
}

// Print writes the hub-contention tables.
func (d *HubData) Print(w io.Writer) {
	header(w, fmt.Sprintf("Hub contention — star-%d, two-hop circuits at F=%.2f, %.0f s horizon",
		d.Leaves+1, d.TargetF, d.HorizonS))
	for _, shared := range []bool{false, true} {
		name := "disjoint spokes (hub accumulates swap load)"
		if shared {
			name = "shared gateway spoke (memory contention at the hub's port)"
		}
		fmt.Fprintf(w, "\n%s\n%9s %12s %13s %10s %11s %13s\n", name,
			"circuits", "aggregate/s", "per-circuit/s", "min/s", "hub swaps/s", "hub discard/s")
		for _, p := range d.Points {
			if p.Shared != shared {
				continue
			}
			fmt.Fprintf(w, "%9d %12.2f %13.2f %10.2f %11.1f %13.1f\n",
				p.Circuits, p.AggregatePS, p.PerCircuitPS, p.MinPS, p.HubSwaps, p.HubDiscards)
		}
	}
}

// DiversityPoint is one marker of the path-diversity study.
type DiversityPoint struct {
	Topology     string
	Circuits     int
	Feasible     float64 // mean fraction of circuits that could be planned
	AggregatePS  float64
	PerCircuitPS float64
	MeanHops     float64
}

// DiversityData is the grid/Waxman path-diversity scenario set.
type DiversityData struct {
	Points   []DiversityPoint
	HorizonS float64
	TargetF  float64
}

// PathDiversity runs 1, 2 and 4 concurrent circuits over a 4×4 grid (one
// three-hop circuit per row — fully link-disjoint routes) and over 12-node
// Waxman graphs (random endpoint pairs). Unlike the shared-spoke star,
// aggregate throughput grows with the circuit count because the mesh
// offers disjoint routes — the routing argument for path-diverse
// topologies.
func PathDiversity(o Options) *DiversityData {
	horizon := 10 * sim.Second
	if o.Quick {
		horizon = 3 * sim.Second
	}
	return pathDiversity(o, horizon, []string{"grid-4x4", "waxman-12"}, []int{1, 2, 4})
}

const diversityTargetF = 0.8

// diversityParams is the diversity sweep's shape.
type diversityParams struct {
	Horizon    sim.Duration
	Topologies []string
	Counts     []int
}

type diversityCell struct {
	topology string
	circuits int
}

// diversityResult is one replica's wire-friendly measurement.
type diversityResult struct {
	Feasible     float64
	AggregatePS  float64
	PerCircuitPS float64
	Hops         float64
}

var diversitySweep = &sweep[diversityParams, diversityCell, diversityResult]{
	fig: "diversity",
	cells: func(p diversityParams) (cells []diversityCell) {
		for _, topology := range p.Topologies {
			for _, k := range p.Counts {
				cells = append(cells, diversityCell{topology, k})
			}
		}
		return cells
	},
	run: func(p diversityParams, c diversityCell, _ int, seed int64) diversityResult {
		return diversityRun(seed, c, p.Horizon)
	},
}

// diversityRun measures one path-diversity replica.
func diversityRun(seed int64, j diversityCell, horizon sim.Duration) diversityResult {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	// One circuit per grid row (row-major numbering): link-disjoint routes.
	gridPairs := [][2]string{{"n0", "n3"}, {"n4", "n7"}, {"n8", "n11"}, {"n12", "n15"}}
	var topo qnet.TopologySpec
	var specs []qnet.CircuitSpec
	if j.topology == "grid-4x4" {
		topo = qnet.GridTopo(4, 4)
		for i := 0; i < j.circuits; i++ {
			specs = append(specs, qnet.CircuitSpec{
				Src: gridPairs[i][0], Dst: gridPairs[i][1],
				Fidelity: diversityTargetF, Workload: qnet.ContinuousKeep{}, Optional: true,
			})
		}
	} else {
		topo = qnet.WaxmanTopo(12, 0.5, 0.4)
		specs = []qnet.CircuitSpec{{
			Select:   qnet.RandomPairs(j.circuits),
			Fidelity: diversityTargetF, Workload: qnet.ContinuousKeep{}, Optional: true,
		}}
	}
	res, err := qnet.Scenario{
		Name:     fmt.Sprintf("%s-%d", j.topology, j.circuits),
		Config:   cfg,
		Topology: topo,
		Circuits: specs,
		Horizon:  horizon,
	}.Run()
	if err != nil {
		panic(err)
	}
	m := res.Metrics
	out := diversityResult{AggregatePS: m.AggregateEER()}
	var feas, per, hops runner.Stats
	for _, cm := range m.Circuits {
		if !cm.Established {
			feas.Add(0)
			continue
		}
		feas.Add(1)
		per.Add(cm.EER(m.Start, m.End))
		hops.Add(float64(len(cm.Path) - 1))
	}
	out.Feasible = feas.Mean()
	out.PerCircuitPS = per.Mean()
	out.Hops = hops.Mean()
	return out
}

// pathDiversity is the parameterised core, so -short tests can trim the
// grid without duplicating the scenario.
func pathDiversity(o Options, horizon sim.Duration, topologies []string, counts []int) *DiversityData {
	cells, results := diversitySweep.Run(o, diversityParams{Horizon: horizon, Topologies: topologies, Counts: counts})
	d := &DiversityData{HorizonS: horizon.Seconds(), TargetF: diversityTargetF}
	for i, c := range cells {
		var feas, agg, per, hops runner.Stats
		for _, r := range results[i] {
			feas.Add(r.Feasible)
			agg.Add(r.AggregatePS)
			per.Add(r.PerCircuitPS)
			hops.Add(r.Hops)
		}
		d.Points = append(d.Points, DiversityPoint{
			Topology: c.topology, Circuits: c.circuits,
			Feasible: feas.Mean(), AggregatePS: agg.Mean(),
			PerCircuitPS: per.Mean(), MeanHops: hops.Mean(),
		})
	}
	return d
}

// Print writes the path-diversity table.
func (d *DiversityData) Print(w io.Writer) {
	header(w, fmt.Sprintf("Path diversity — concurrent circuits at F=%.2f, %.0f s horizon", d.TargetF, d.HorizonS))
	fmt.Fprintf(w, "%-10s %9s %9s %6s %12s %13s\n",
		"topology", "circuits", "feasible", "hops", "aggregate/s", "per-circuit/s")
	for _, p := range d.Points {
		fmt.Fprintf(w, "%-10s %9d %9.2f %6.1f %12.2f %13.2f\n",
			p.Topology, p.Circuits, p.Feasible, p.MeanHops, p.AggregatePS, p.PerCircuitPS)
	}
}

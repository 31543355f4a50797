package experiments

import (
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// The multipath placement study: the same offered load, admitted under
// every combination of k-shortest-path candidate count (k ∈ {1,2,3}) and
// allocation policy (count-split vs model-weighted). k=1 count-split is
// the legacy controller; k>1 lets a MinEER demand re-route around a loaded
// shortest path, and model-weighted divides link budget by each member's
// modeled end-to-end deliverable rate instead of by head count.

// MultipathPoint is one (topology, k, policy) cell, averaged over replicas.
type MultipathPoint struct {
	Topology string
	K        int     // candidate paths scored per circuit
	Model    bool    // model-weighted allocation instead of count-split
	Offered  int     // circuits offered per run
	Admitted float64 // mean circuits admitted
	Rejected float64 // mean circuits rejected at admission
	Rerouted float64 // mean circuits placed off their shortest path
	AggEER   float64 // mean aggregate delivered pairs/s across the network
}

// MultipathData is the placement study.
type MultipathData struct {
	Points []MultipathPoint
	// GridDemandPS and WaxmanDemandPS are the per-circuit MinEER demands of
	// the two testbeds (fractions of the three-hop reference allocation).
	GridDemandPS   float64
	WaxmanDemandPS float64
	HorizonS       float64
}

// multipathTargetF is the end-to-end fidelity target of every circuit.
const multipathTargetF = 0.8

// multipathParams is the sweep's shape. Ref, Physics and Seed are filled
// in by multipath from the probe and Options.
type multipathParams struct {
	Horizon sim.Duration
	Pairs   int
	Ref     float64
	Physics qnet.Physics
	Seed    int64
}

// multipathCell is one cell of the sweep.
type multipathCell struct {
	topo  string
	k     int
	model bool
}

// multipathResult is one replica's wire-friendly measurement.
type multipathResult struct {
	Admitted int
	Rejected int
	Rerouted int
	AggEER   float64
}

// multipathRef probes the uncontended count-split allocation of a
// three-hop circuit at the study's fidelity target — the reference rate
// the per-testbed demands are fractions of. The probe depends only on the
// uniform link hardware.
func multipathRef() float64 {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	net := qnet.Dumbbell(cfg)
	dec, _, err := net.Controller.Place(qnet.PlacementRequest{
		Src: "A0", Dst: "B0", Fidelity: multipathTargetF, Cutoff: qnet.CutoffShort, Probe: true,
	})
	if err != nil {
		panic(err)
	}
	return dec.Plan.MaxEER
}

// Per-testbed demand as a fraction of the three-hop reference allocation.
// The grid demand sits in the band where a three-hop circuit needs every
// link of its path to itself (a second member's split falls short) while
// shorter circuits tolerate sharing — so the crafted load saturates
// shortest-path corridors and recovery must re-route. The Waxman demand is
// lower: random loads on random graphs stack several circuits per link,
// and the demand is set so only deep stacks overflow.
const (
	gridDemandFrac   = 0.6
	waxmanDemandFrac = 0.3
)

// gridLoad is the crafted 16-circuit offered load for the 4×4 grid (nodes
// n<y·4+x>): three L-shaped 3-hop "backbone" circuits through the left
// block, seven 3-hop contenders that collide with them (some with a
// loopless detour through the free periphery, some without), and six
// 1-hop fills. Admission is sequential in this order, so the outcome is
// identical in every replica: k=1 admits 10 (the contenders' shortest
// paths all cross held links), k=2 re-routes one contender onto its
// periphery detour, k=3 a second — admitted rises 10 → 11 → 12 with k.
var gridLoad = [][2]string{
	{"n0", "n6"}, {"n4", "n10"}, {"n8", "n14"},
	{"n2", "n11"}, {"n7", "n14"}, {"n6", "n15"}, {"n9", "n15"},
	{"n4", "n13"}, {"n5", "n11"}, {"n0", "n9"},
	{"n0", "n4"}, {"n1", "n5"}, {"n12", "n13"},
	{"n5", "n6"}, {"n8", "n9"}, {"n10", "n14"},
}

// multipathScenario is one replica's declarative scenario: the offered
// load pre-installed in spec order (sequential admission), each circuit
// demanding the testbed's MinEER under EnforceEER with the cell's
// placement parameters, then saturated by ContinuousKeep so delivered
// throughput reflects the placements. The grid offers the crafted
// gridLoad; the (seed-dependent) Waxman graph offers random pairs.
func multipathScenario(j multipathCell, p multipathParams) qnet.Scenario {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	cfg.Physics = p.Physics
	if j.model {
		cfg.Alloc = qnet.AllocModelWeighted
	}
	base := qnet.CircuitSpec{
		Fidelity:   multipathTargetF,
		Policy:     qnet.CutoffShort,
		Candidates: j.k,
		Workload:   qnet.ContinuousKeep{},
		Optional:   true,
	}
	var ts qnet.TopologySpec
	var circuits []qnet.CircuitSpec
	if j.topo == "grid-4x4" {
		ts = qnet.GridTopo(4, 4)
		for i, pair := range gridLoad {
			c := base
			c.ID = qnet.CircuitID(fmt.Sprintf("c%d", i))
			c.Src, c.Dst = pair[0], pair[1]
			c.MinEER = gridDemandFrac * p.Ref
			circuits = append(circuits, c)
		}
	} else {
		// Denser than the diversity figure's Waxman testbed (23 links on
		// 12 nodes vs 14): placement needs alternate routes to exist.
		ts = qnet.WaxmanTopo(12, 0.8, 0.5)
		c := base
		c.ID = "vc"
		c.Select = qnet.RandomPairs(p.Pairs)
		c.MinEER = waxmanDemandFrac * p.Ref
		circuits = append(circuits, c)
	}
	return qnet.Scenario{
		Name:     fmt.Sprintf("multipath-%s-k%d", j.topo, j.k),
		Config:   cfg,
		Topology: ts,
		Circuits: circuits,
		Horizon:  p.Horizon,
	}
}

// multipathSweep replays the same replica seeds p.Seed+replica in every
// (k, policy) cell, so all cells see the identical offered load and differ
// only in placement policy — a paired comparison, not independent draws.
var multipathSweep = &sweep[multipathParams, multipathCell, multipathResult]{
	fig: "multipath",
	cells: func(multipathParams) (cells []multipathCell) {
		for _, topo := range []string{"grid-4x4", "waxman-12"} {
			for _, k := range []int{1, 2, 3} {
				for _, model := range []bool{false, true} {
					cells = append(cells, multipathCell{topo: topo, k: k, model: model})
				}
			}
		}
		return cells
	},
	run: func(p multipathParams, c multipathCell, replica int, _ int64) multipathResult {
		return multipathRun(p.Seed+int64(replica), c, p)
	},
}

// multipathRun measures one placement replica.
func multipathRun(seed int64, c multipathCell, p multipathParams) multipathResult {
	sc := multipathScenario(c, p)
	sc.Config.Seed = seed
	res, err := sc.Run()
	if err != nil {
		panic(err)
	}
	m := res.Metrics
	out := multipathResult{
		Admitted: m.Admitted,
		Rejected: m.RejectedAtAdmission,
		AggEER:   m.AggregateEER(),
	}
	for _, cm := range m.Circuits {
		if cm.Established && cm.CandidateIndex > 0 {
			out.Rerouted++
		}
	}
	return out
}

// Multipath runs the placement study on the grid and Waxman testbeds.
func Multipath(o Options) *MultipathData {
	horizon, pairs := 10*sim.Second, 16
	if o.Quick {
		horizon = 3 * sim.Second
	}
	return multipath(o, multipathParams{Horizon: horizon, Pairs: pairs})
}

// multipath is the parameterised core.
func multipath(o Options, p multipathParams) *MultipathData {
	p.Ref, p.Physics, p.Seed = multipathRef(), o.Physics, o.Seed
	cells, results := multipathSweep.Run(o, p)
	d := &MultipathData{
		GridDemandPS:   gridDemandFrac * p.Ref,
		WaxmanDemandPS: waxmanDemandFrac * p.Ref,
		HorizonS:       p.Horizon.Seconds(),
	}
	for i, c := range cells {
		offered := len(gridLoad)
		if c.topo != "grid-4x4" {
			offered = p.Pairs
		}
		var adm, rej, rer, agg runner.Stats
		for _, r := range results[i] {
			adm.Add(float64(r.Admitted))
			rej.Add(float64(r.Rejected))
			rer.Add(float64(r.Rerouted))
			agg.Add(r.AggEER)
		}
		d.Points = append(d.Points, MultipathPoint{
			Topology: c.topo, K: c.k, Model: c.model, Offered: offered,
			Admitted: adm.Mean(), Rejected: rej.Mean(), Rerouted: rer.Mean(), AggEER: agg.Mean(),
		})
	}
	return d
}

// Print writes the multipath placement table.
func (d *MultipathData) Print(w io.Writer) {
	header(w, fmt.Sprintf("Multipath placement — per-circuit demand %.1f (grid) / %.1f (waxman) pairs/s, %.0f s horizon",
		d.GridDemandPS, d.WaxmanDemandPS, d.HorizonS))
	fmt.Fprintf(w, "%10s %3s %9s %8s %9s %9s %9s %8s\n",
		"topology", "k", "alloc", "offered", "admitted", "rejected", "rerouted", "agg-EER")
	for _, p := range d.Points {
		alloc := "count"
		if p.Model {
			alloc = "model"
		}
		fmt.Fprintf(w, "%10s %3d %9s %8d %9.1f %9.1f %9.1f %8.2f\n",
			p.Topology, p.K, alloc, p.Offered, p.Admitted, p.Rejected, p.Rerouted, p.AggEER)
	}
	fmt.Fprintln(w, "k>1 scores loopless candidate paths and re-routes demands the shortest path")
	fmt.Fprintln(w, "cannot absorb; model-weighted divides link budget by each circuit's modeled")
	fmt.Fprintln(w, "end-to-end deliverable rate instead of by contention head count")
}

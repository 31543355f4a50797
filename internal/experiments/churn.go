package experiments

import (
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// ChurnPoint is one (topology, hold time, allocation policy) cell of the
// churn study, averaged over replicas.
type ChurnPoint struct {
	Topology string
	HoldS    float64 // mean holding time (s)
	Static   bool    // static MaxLPR/2 allocation instead of re-fit
	Offered  int     // circuit arrivals offered per run
	Admitted float64 // mean circuits admitted
	Rejected float64 // mean circuits rejected at admission
	TWEER    float64 // mean time-weighted EER (pairs per circuit-second)
	Deliv    float64 // mean total pairs delivered
}

// ChurnData is the circuit-churn admission study.
type ChurnData struct {
	Points   []ChurnPoint
	Arrivals int
	DemandPS float64
	HorizonS float64
}

// churnTargetF is the end-to-end fidelity target of every churn circuit.
const churnTargetF = 0.85

// churnParams is the sweep's shape. Demand and Physics are filled in by
// churn from the probe and Options.
type churnParams struct {
	Horizon  sim.Duration
	Holds    []sim.Duration
	Circuits int
	Demand   float64
	Physics  qnet.Physics
}

// churnCell is one cell of the sweep.
type churnCell struct {
	topo   string
	hold   sim.Duration
	static bool
}

// churnResult is one replica's wire-friendly measurement.
type churnResult struct {
	Admitted  int
	Rejected  int
	TWEER     float64
	Delivered int
}

// churnDemand is each circuit's rate demand: 40% of the uncontended
// allocation, so the re-fit controller admits up to two circuits per link
// (MaxLPR/(2·2) ≥ demand) and rejects a third, while the static controller
// admits everything and lets the link contend. The allocation depends only
// on the uniform link hardware, so the dumbbell probe covers every topology.
func churnDemand() float64 { return 0.4 * eerAllocation() }

// churnScenario is one replica's declarative scenario: Circuits arrivals
// with uniform offsets over the first 60% of the horizon (a Poisson
// process conditioned on the arrival count has i.i.d. uniform arrival
// times) and exponential holding, each demanding p.Demand pairs/s,
// admission-controlled with either re-fit or static allocation.
func churnScenario(c churnCell, p churnParams) qnet.Scenario {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	if c.static {
		cfg.Alloc = qnet.AllocStatic
	}
	cfg.Physics = p.Physics
	var ts qnet.TopologySpec
	if c.topo == "grid" {
		ts = qnet.GridTopo(3, 3)
	} else {
		ts = qnet.DumbbellTopo()
	}
	return qnet.Scenario{
		Name:     "churn-" + c.topo,
		Config:   cfg,
		Topology: ts,
		Circuits: []qnet.CircuitSpec{{
			ID:       "vc",
			Select:   qnet.RandomPairs(p.Circuits),
			Fidelity: churnTargetF,
			Policy:   qnet.CutoffShort,
			Arrival:  qnet.Uniform(0, sim.Duration(float64(p.Horizon)*0.6)),
			Holding:  qnet.Exponential(c.hold),
			MinEER:   p.Demand,
			Workload: qnet.MeasureStream{Rate: p.Demand},
			Optional: true,
		}},
		Horizon: p.Horizon,
	}
}

var churnSweep = &sweep[churnParams, churnCell, churnResult]{
	fig: "churn",
	cells: func(p churnParams) (cells []churnCell) {
		for _, topo := range []string{"dumbbell", "grid"} {
			for _, hold := range p.Holds {
				for _, static := range []bool{false, true} {
					cells = append(cells, churnCell{topo: topo, hold: hold, static: static})
				}
			}
		}
		return cells
	},
	run: func(p churnParams, c churnCell, _ int, seed int64) churnResult { return churnRun(seed, c, p) },
}

// churnRun measures one churn replica.
func churnRun(seed int64, c churnCell, p churnParams) churnResult {
	sc := churnScenario(c, p)
	sc.Config.Seed = seed
	res, err := sc.Run()
	if err != nil {
		panic(err)
	}
	m := res.Metrics
	return churnResult{
		Admitted:  m.Admitted,
		Rejected:  m.RejectedAtAdmission,
		TWEER:     m.TimeWeightedEER(),
		Delivered: m.TotalDelivered(),
	}
}

// Churn runs the circuit-churn admission study: scheduled arrivals and
// departures under admission control, comparing membership re-fit against
// the static MaxLPR/2 allocation on the dumbbell and a 3×3 grid.
func Churn(o Options) *ChurnData {
	horizon, holds, circuits := 10*sim.Second, []sim.Duration{1 * sim.Second, 5 * sim.Second / 2, 5 * sim.Second}, 10
	if o.Quick {
		horizon, holds, circuits = 4*sim.Second, []sim.Duration{1 * sim.Second, 5 * sim.Second / 2}, 6
	}
	return churn(o, churnParams{Horizon: horizon, Holds: holds, Circuits: circuits})
}

// churn is the parameterised core.
func churn(o Options, p churnParams) *ChurnData {
	p.Demand, p.Physics = churnDemand(), o.Physics
	cells, results := churnSweep.Run(o, p)
	d := &ChurnData{Arrivals: p.Circuits, DemandPS: p.Demand, HorizonS: p.Horizon.Seconds()}
	for i, c := range cells {
		var adm, rej, tw, del runner.Stats
		for _, r := range results[i] {
			adm.Add(float64(r.Admitted))
			rej.Add(float64(r.Rejected))
			tw.Add(r.TWEER)
			del.Add(float64(r.Delivered))
		}
		d.Points = append(d.Points, ChurnPoint{
			Topology: c.topo, HoldS: c.hold.Seconds(), Static: c.static, Offered: p.Circuits,
			Admitted: adm.Mean(), Rejected: rej.Mean(), TWEER: tw.Mean(), Deliv: del.Mean(),
		})
	}
	return d
}

// Print writes the churn table.
func (d *ChurnData) Print(w io.Writer) {
	header(w, fmt.Sprintf("Circuit churn — %d Poisson arrivals/run, %.2f pairs/s demand each, %.0f s horizon",
		d.Arrivals, d.DemandPS, d.HorizonS))
	fmt.Fprintf(w, "%9s %7s %8s %9s %9s %9s %11s\n",
		"topology", "hold/s", "alloc", "admitted", "rejected", "tw-EER", "delivered")
	for _, p := range d.Points {
		alloc := "re-fit"
		if p.Static {
			alloc = "static"
		}
		fmt.Fprintf(w, "%9s %7.1f %8s %9.1f %9.1f %9.2f %11.1f\n",
			p.Topology, p.HoldS, alloc, p.Admitted, p.Rejected, p.TWEER, p.Deliv)
	}
	fmt.Fprintln(w, "re-fit splits each link's budget across its members and rejects arrivals it")
	fmt.Fprintln(w, "cannot serve; static admits everything at MaxLPR/2 and lets links contend")
}

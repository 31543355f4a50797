package experiments

import (
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/internal/stats"
	"qnp/qnet"
)

// CityPoint is one mean-holding-time row of the city study, averaged over
// replicas; the latency percentiles come from the replicas' merged
// streaming aggregates.
type CityPoint struct {
	HoldS    float64 // mean circuit holding time (s)
	Admitted float64 // mean circuits admitted
	Rejected float64 // mean circuits rejected at admission
	Deliv    float64 // mean pairs delivered
	AggEER   float64 // mean network-wide EER (pairs/s)
	TWEER    float64 // mean time-weighted EER (pairs per circuit-second)
	LatP50   float64 // request completion latency percentiles (s),
	LatP95   float64 // from the replica-merged streaming aggregate
	LatP99   float64
	LatN     int64 // completions behind the percentiles
}

// CityData is the city-scale churn study: the first scenario size the
// repository could not run before streaming metrics existed.
type CityData struct {
	Nodes    int
	Links    int
	Arrivals int
	HorizonS float64
	DemandPS float64
	Points   []CityPoint
}

// cityTargetF is the end-to-end fidelity target of every city circuit.
const cityTargetF = 0.85

// cityParams is the study's shape.
type cityParams struct {
	Rows, Cols int
	Horizon    sim.Duration
	Holds      []sim.Duration
	Circuits   int
	ReqMean    sim.Duration
}

// cityResult is one replica's measurement. Lat is the
// replica's merged latency aggregate — constant-size regardless of how many
// requests completed, and mergeable across replicas.
type cityResult struct {
	Admitted  int
	Rejected  int
	Delivered int
	AggEER    float64
	TWEER     float64
	Lat       *stats.Agg
}

// cityScenario is one replica: a Rows×Cols metropolitan grid with Circuits
// circuit arrivals offered over the first 60% of the horizon, exponential
// holding, each demanding the policeable rate demand under admission
// control and carrying Poisson single-pair requests. MetricsStreaming
// keeps the metrics memory independent of the delivery count — the point
// of the scenario.
func cityScenario(hold sim.Duration, p cityParams, demand float64) qnet.Scenario {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	cfg.MetricsMode = qnet.MetricsStreaming
	return qnet.Scenario{
		Name:     "city",
		Config:   cfg,
		Topology: qnet.GridTopo(p.Rows, p.Cols),
		Circuits: []qnet.CircuitSpec{{
			ID:       "vc",
			Select:   qnet.RandomPairs(p.Circuits),
			Fidelity: cityTargetF,
			Policy:   qnet.CutoffShort,
			Arrival:  qnet.Uniform(0, sim.Duration(float64(p.Horizon)*0.6)),
			Holding:  qnet.Exponential(hold),
			MinEER:   demand,
			Workload: qnet.PoissonKeep{Mean: p.ReqMean, Pairs: 1},
			Optional: true,
		}},
		Horizon: p.Horizon,
	}
}

// cityRun measures one city replica.
func cityRun(seed int64, physics qnet.Physics, hold sim.Duration, p cityParams, demand float64) cityResult {
	sc := cityScenario(hold, p, demand)
	sc.Config.Seed, sc.Config.Physics = seed, physics
	res, err := sc.Run()
	if err != nil {
		panic(err)
	}
	m := res.Metrics
	return cityResult{
		Admitted:  m.Admitted,
		Rejected:  m.RejectedAtAdmission,
		Delivered: m.TotalDelivered(),
		AggEER:    m.AggregateEER(),
		TWEER:     m.TimeWeightedEER(),
		Lat:       m.LatencySummary(),
	}
}

// City runs the city-scale churn study: a metropolitan grid of repeater
// nodes under thousands of churning circuits, recorded with streaming
// metrics. Not part of -fig all: the default size runs far longer than the
// paper figures and its memory story (constant-size metrics over an
// unbounded delivery stream) is the study itself.
func City(o Options) *CityData {
	p := cityParams{
		Rows: 15, Cols: 15,
		Horizon:  20 * sim.Second,
		Holds:    []sim.Duration{5 * sim.Second / 2, 10 * sim.Second},
		Circuits: 2000,
		ReqMean:  100 * sim.Millisecond,
	}
	if o.Quick {
		p = cityParams{
			Rows: 10, Cols: 10,
			Horizon:  6 * sim.Second,
			Holds:    []sim.Duration{5 * sim.Second / 2},
			Circuits: 300,
			ReqMean:  100 * sim.Millisecond,
		}
	}
	demand := churnDemand()
	results := grid(o, p.Holds, func(hold sim.Duration, _ int, seed int64) cityResult {
		return cityRun(seed, o.Physics, hold, p, demand)
	})
	d := &CityData{
		Nodes:    p.Rows * p.Cols,
		Links:    p.Rows*(p.Cols-1) + p.Cols*(p.Rows-1),
		Arrivals: p.Circuits,
		HorizonS: p.Horizon.Seconds(),
		DemandPS: demand,
	}
	for i, hold := range p.Holds {
		var adm, rej, del, agg, tw runner.Stats
		lat := new(stats.Agg)
		for _, r := range results[i] {
			adm.Add(float64(r.Admitted))
			rej.Add(float64(r.Rejected))
			del.Add(float64(r.Delivered))
			agg.Add(r.AggEER)
			tw.Add(r.TWEER)
			lat.Merge(r.Lat)
		}
		d.Points = append(d.Points, CityPoint{
			HoldS:    hold.Seconds(),
			Admitted: adm.Mean(), Rejected: rej.Mean(), Deliv: del.Mean(),
			AggEER: agg.Mean(), TWEER: tw.Mean(),
			LatP50: lat.Percentile(0.50),
			LatP95: lat.Percentile(0.95),
			LatP99: lat.Percentile(0.99),
			LatN:   lat.Count,
		})
	}
	return d
}

// Print writes the city table.
func (d *CityData) Print(w io.Writer) {
	header(w, fmt.Sprintf("City scale — %d-node grid (%d links), %d circuit arrivals/run, %.2f pairs/s demand, %.0f s horizon, streaming metrics",
		d.Nodes, d.Links, d.Arrivals, d.DemandPS, d.HorizonS))
	fmt.Fprintf(w, "%7s %9s %9s %10s %8s %8s %9s %9s %9s %9s\n",
		"hold/s", "admitted", "rejected", "delivered", "aggEER", "tw-EER", "lat-p50", "lat-p95", "lat-p99", "requests")
	for _, p := range d.Points {
		fmt.Fprintf(w, "%7.1f %9.1f %9.1f %10.1f %8.1f %8.2f %8.1fms %8.1fms %8.1fms %9d\n",
			p.HoldS, p.Admitted, p.Rejected, p.Deliv, p.AggEER, p.TWEER,
			1e3*p.LatP50, 1e3*p.LatP95, 1e3*p.LatP99, p.LatN)
	}
	fmt.Fprintln(w, "latency percentiles come from per-circuit streaming aggregates merged across")
	fmt.Fprintln(w, "circuits and replicas; metrics memory is independent of the delivery count")
}

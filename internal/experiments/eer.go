package experiments

import (
	"fmt"
	"io"

	"qnp/internal/quantum"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// EERPoint is one offered-load marker of the saturation study.
type EERPoint struct {
	Requests    int     // concurrent rate-based requests offered
	OfferedPS   float64 // sum of requested rates (pairs/s)
	MeasuredPS  float64 // delivered pairs/s at the head-end
	Rejected    float64 // mean policed-away requests per run
	Oversized   bool    // single request demanding more than the allocation
	AllocatedPS float64
}

// EERData is the admission-control saturation study.
type EERData struct {
	Points      []EERPoint
	AllocatedPS float64
	HorizonS    float64
}

// EERSaturation exercises routing.Controller.EnforceEER end to end: with
// admission control on, the A0-B0 plan carries a MaxEER allocation, and the
// head-end polices and shapes rate-based requests against it. The offered
// load sweeps past the allocation — demand above it is queued (shaped) or,
// when a single request alone exceeds the allocation, rejected — and the
// measured end-to-end rate saturates at or below MaxEER.
func EERSaturation(o Options) *EERData {
	horizon := 10 * sim.Second
	if o.Quick {
		horizon = 4 * sim.Second
	}
	return eerSaturation(o, horizon, []int{1, 2, 3, 4, 6})
}

const eerTargetF = 0.85

// eerParams is the saturation sweep's shape, with the probed allocation.
type eerParams struct {
	Horizon sim.Duration
	Loads   []int
	Alloc   float64
	Physics qnet.Physics
}

type eerCell struct {
	requests  int
	oversized bool
}

// eerResult is one replica's wire-friendly measurement.
type eerResult struct {
	MeasuredPS float64
	Rejected   int
}

// dumbbellAllocation reads the count-split MaxEER allocation the
// controller hands an uncontended three-hop A0→B0 dumbbell circuit at
// end-to-end fidelity f under the short cutoff. It depends only on the
// uniform link hardware and involves no replica seed: the parent probes it
// once and ships the value to replicas in their params.
func dumbbellAllocation(f float64) float64 {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	net := qnet.Dumbbell(cfg)
	dec, _, err := net.Controller.Place(qnet.PlacementRequest{
		Src: "A0", Dst: "B0", Fidelity: f, Cutoff: qnet.CutoffShort, Probe: true,
	})
	if err != nil {
		panic(err)
	}
	return dec.Plan.MaxEER
}

var eerSweep = &sweep[eerParams, eerCell, eerResult]{
	fig: "eer",
	cells: func(p eerParams) (cells []eerCell) {
		for _, k := range p.Loads {
			cells = append(cells, eerCell{requests: k})
		}
		return append(cells, eerCell{requests: 1, oversized: true})
	},
	run: func(p eerParams, c eerCell, _ int, seed int64) eerResult {
		return eerRun(seed, p.Physics, c, p.Alloc, p.Horizon)
	},
}

// eerRun measures one policed-circuit replica.
func eerRun(seed int64, physics qnet.Physics, j eerCell, alloc float64, horizon sim.Duration) eerResult {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Physics = physics
	cfg.EnforceEER = true
	reqs := make([]qnet.Request, j.requests)
	for i := range reqs {
		rate := alloc * 0.4
		if j.oversized {
			rate = 2 * alloc
		}
		reqs[i] = qnet.Request{
			ID: qnet.RequestID(fmt.Sprintf("m%d", i)), Type: qnet.Measure,
			MeasureBasis: quantum.ZBasis, Rate: rate,
		}
	}
	res, err := qnet.Scenario{
		Name:     "eer-saturation",
		Config:   cfg,
		Topology: qnet.DumbbellTopo(),
		Circuits: []qnet.CircuitSpec{{
			ID: "policed", Src: "A0", Dst: "B0", Fidelity: eerTargetF, Policy: qnet.CutoffShort,
			Workload: qnet.Batch{Requests: reqs},
		}},
		Horizon: horizon,
	}.Run()
	if err != nil {
		panic(err)
	}
	m := res.Metrics
	cm := m.Circuit("policed")
	return eerResult{MeasuredPS: cm.EER(m.Start, m.End), Rejected: cm.Rejected}
}

// eerSaturation is the parameterised core, so -short tests can trim the
// sweep without duplicating the scenario.
func eerSaturation(o Options, horizon sim.Duration, loads []int) *EERData {
	alloc := dumbbellAllocation(eerTargetF)
	perReq := alloc * 0.4
	cells, results := eerSweep.Run(o, eerParams{Horizon: horizon, Loads: loads, Alloc: alloc, Physics: o.Physics})
	d := &EERData{AllocatedPS: alloc, HorizonS: horizon.Seconds()}
	for i, c := range cells {
		var meas, rej runner.Stats
		for _, r := range results[i] {
			meas.Add(r.MeasuredPS)
			rej.Add(float64(r.Rejected))
		}
		offered := float64(c.requests) * perReq
		if c.oversized {
			offered = 2 * alloc
		}
		d.Points = append(d.Points, EERPoint{
			Requests: c.requests, OfferedPS: offered, MeasuredPS: meas.Mean(),
			Rejected: rej.Mean(), Oversized: c.oversized, AllocatedPS: alloc,
		})
	}
	return d
}

// Print writes the saturation table.
func (d *EERData) Print(w io.Writer) {
	header(w, fmt.Sprintf("EER saturation — policed A0-B0 circuit, allocation %.2f pairs/s, %.0f s runs",
		d.AllocatedPS, d.HorizonS))
	fmt.Fprintf(w, "%9s %11s %12s %10s\n", "requests", "offered/s", "measured/s", "rejected")
	for _, p := range d.Points {
		note := ""
		if p.Oversized {
			note = "  (single oversized request: policed away)"
		}
		fmt.Fprintf(w, "%9d %11.2f %12.2f %10.1f%s\n", p.Requests, p.OfferedPS, p.MeasuredPS, p.Rejected, note)
	}
	fmt.Fprintln(w, "demand above the allocation is shaped (queued) or rejected; the measured")
	fmt.Fprintln(w, "rate stays at or below the MaxEER allocation")
}

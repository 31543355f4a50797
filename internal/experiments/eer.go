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

// dumbbellAllocation reads the count-split MaxEER allocation the
// controller hands an uncontended three-hop A0→B0 dumbbell circuit at
// end-to-end fidelity f under the short cutoff. It depends only on the
// uniform link hardware and involves no replica seed: the figure probes it
// once and its replicas share the value.
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

// eerRun measures one policed-circuit replica of cell c: c.Requests
// requests at 40% of c.AllocatedPS each, or one at twice it when
// c.Oversized.
func eerRun(seed int64, physics qnet.Physics, c EERPoint, horizon sim.Duration) EERPoint {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Physics = physics
	cfg.EnforceEER = true
	reqs := make([]qnet.Request, c.Requests)
	for i := range reqs {
		rate := c.AllocatedPS * 0.4
		if c.Oversized {
			rate = 2 * c.AllocatedPS
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
	c.MeasuredPS, c.Rejected = cm.EER(m.Start, m.End), float64(cm.Rejected)
	return c
}

// eerSaturation is the parameterised core, so -short tests can trim the
// sweep without duplicating the scenario.
func eerSaturation(o Options, horizon sim.Duration, loads []int) *EERData {
	alloc := dumbbellAllocation(eerTargetF)
	var cells []EERPoint
	for _, k := range loads {
		cells = append(cells, EERPoint{Requests: k, OfferedPS: float64(k) * (alloc * 0.4), AllocatedPS: alloc})
	}
	cells = append(cells, EERPoint{Requests: 1, OfferedPS: 2 * alloc, Oversized: true, AllocatedPS: alloc})
	results := grid(o, cells, func(c EERPoint, _ int, seed int64) EERPoint { return eerRun(seed, o.Physics, c, horizon) })
	d := &EERData{AllocatedPS: alloc, HorizonS: horizon.Seconds()}
	for i, c := range cells {
		var meas, rej runner.Stats
		for _, r := range results[i] {
			meas.Add(r.MeasuredPS)
			rej.Add(r.Rejected)
		}
		c.MeasuredPS, c.Rejected = meas.Mean(), rej.Mean()
		d.Points = append(d.Points, c)
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

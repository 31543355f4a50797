package experiments

import (
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// Fig9Point is one marker of Fig. 9: mean request latency and circuit
// throughput at one offered load, in an empty or congested network.
type Fig9Point struct {
	Congested     bool
	IntervalS     float64
	ThroughputPS  float64 // delivered pairs/second on A0-B0 in the window
	LatencyS      float64 // mean latency of requests issued in the window
	LatP5, LatP95 float64
}

// Fig9Data is the latency-versus-throughput curve of §5.1.
type Fig9Data struct {
	Points []Fig9Point
}

// Fig9 issues 3-pair requests on A0-B0 at an increasing rate (short cutoff,
// F=0.85) with A1-B1 idle ("empty") or saturated by a long-running request
// ("congested"), and measures latency after the system reaches equilibrium.
func Fig9(o Options) *Fig9Data {
	horizon, measureFrom := 50*sim.Second, 40*sim.Second
	intervals := []float64{2, 1, 0.5, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05, 0.035, 0.025}
	if o.Quick {
		horizon, measureFrom, intervals = 15*sim.Second, 10*sim.Second, []float64{1, 0.3, 0.15}
	}
	var cells []Fig9Point
	for _, congested := range []bool{false, true} {
		for _, iv := range intervals {
			cells = append(cells, Fig9Point{Congested: congested, IntervalS: iv})
		}
	}
	pts := grid(o, cells, func(c Fig9Point, _ int, seed int64) Fig9Point {
		return fig9Run(seed, o.Physics, c.Congested, c.IntervalS, horizon, measureFrom)
	})
	d := &Fig9Data{}
	for i, c := range cells {
		var tp, lat, p5, p95 []float64
		for _, r := range pts[i] {
			tp = append(tp, r.ThroughputPS)
			lat = append(lat, r.LatencyS)
			p5 = append(p5, r.LatP5)
			p95 = append(p95, r.LatP95)
		}
		c.ThroughputPS, c.LatencyS = runner.Mean(tp), runner.Mean(lat)
		c.LatP5, c.LatP95 = runner.Mean(p5), runner.Mean(p95)
		d.Points = append(d.Points, c)
	}
	return d
}

func fig9Run(seed int64, physics qnet.Physics, congested bool, intervalS float64, horizon, measureFrom sim.Duration) Fig9Point {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Physics = physics
	// A1-B1 idles or carries an open-ended background request; A0-B0 sees a
	// 3-pair request every interval. Background traffic, being an immediate
	// workload, opens before the timed arrival chain — the paper's setup.
	var background qnet.Workload
	if congested {
		background = qnet.ContinuousKeep{ID: "bg"}
	}
	res, err := qnet.Scenario{
		Config:   cfg,
		Topology: qnet.DumbbellTopo(),
		Circuits: []qnet.CircuitSpec{
			{ID: "main", Src: "A0", Dst: "B0", Fidelity: 0.85, Policy: qnet.CutoffShort,
				Workload: qnet.IntervalKeep{Interval: sim.DurationFromSeconds(intervalS), Pairs: 3}},
			{ID: "other", Src: "A1", Dst: "B1", Fidelity: 0.85, Policy: qnet.CutoffShort,
				Workload: background},
		},
		Horizon: horizon,
	}.Run()
	if err != nil {
		panic(err)
	}
	// Measure only after the system reaches equilibrium.
	cm := res.Metrics.Circuit("main")
	from := res.Metrics.Start.Add(measureFrom)
	latencies := cm.Latencies(from)
	window := horizon - measureFrom
	return Fig9Point{
		ThroughputPS: float64(cm.DeliveredSince(from)) / window.Seconds(),
		LatencyS:     runner.Mean(latencies),
		LatP5:        runner.Percentile(latencies, 0.05),
		LatP95:       runner.Percentile(latencies, 0.95),
	}
}

// Print writes both curves.
func (d *Fig9Data) Print(w io.Writer) {
	header(w, "Fig. 9 — A0-B0 latency vs throughput (3-pair requests, short cutoff)")
	for _, congested := range []bool{false, true} {
		name := "empty network (A1-B1 idle)"
		if congested {
			name = "congested network (A1-B1 saturated)"
		}
		fmt.Fprintf(w, "\n%s\n%12s %14s %12s %10s %10s\n", name,
			"interval(s)", "throughput(/s)", "latency(s)", "p5(s)", "p95(s)")
		for _, p := range d.Points {
			if p.Congested == congested {
				fmt.Fprintf(w, "%12.2f %14.2f %12.3f %10.3f %10.3f\n",
					p.IntervalS, p.ThroughputPS, p.LatencyS, p.LatP5, p.LatP95)
			}
		}
	}
}

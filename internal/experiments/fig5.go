package experiments

import (
	"fmt"
	"io"

	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/linklayer"
	"qnp/internal/runner"
	"qnp/internal/sim"
)

// Fig5Data is the cumulative distribution of link-pair generation time for
// fidelity-0.95 pairs over a 2 m fibre (paper Fig. 5: mean ≈10 ms, 95% of
// pairs within ≈30 ms).
type Fig5Data struct {
	Samples  []float64 // generation times in seconds, sorted
	MeanMS   float64
	P95MS    float64
	Fidelity float64

	agg runner.Stats
}

// Fig5 measures the link layer's generation time distribution directly —
// a single link asked for F=0.95 pairs, the paper's Fig. 5 setup — through
// the real engine (geometric attempt sampling on the calibrated hardware
// model), not a closed form. It pools o.Runs sample batches, uncapped.
func Fig5(o Options) *Fig5Data {
	want := 2000
	if o.Quick {
		want = 200
	}
	runs := max(o.Runs, 1)
	perRun := max(want/runs, 10)
	batches, _ := runner.Run(o.runnerOpts(), runs, func(_ int, seed int64) []float64 { return fig5Run(seed, perRun) })
	d := &Fig5Data{Fidelity: 0.95}
	for _, r := range batches {
		d.agg.Add(r...)
	}
	d.Samples = d.agg.Sorted()
	d.MeanMS = d.agg.Mean() * 1e3
	d.P95MS = d.agg.Percentile(0.95) * 1e3
	return d
}

// fig5Run is one replica: a fresh link engine generating perRun pairs.
func fig5Run(seed int64, perRun int) []float64 {
	s := sim.New(seed)
	params := hardware.Simulation()
	a := device.New(s, "a", params)
	b := device.New(s, "b", params)
	name := linklayer.LinkName("a", "b")
	a.AddCommQubits(name, 2)
	b.AddCommQubits(name, 2)
	eng := linklayer.NewEngine(s, name, hardware.LabLink(), a, b)

	var times []float64
	last := s.Now()
	free := func(d linklayer.Delivery, dev *device.Device) {
		if side := d.Pair.LocalSide(dev.ID()); side >= 0 {
			dev.Free(d.Pair.Half(side))
		}
	}
	if err := eng.Register("a", "f5", 0.95, 10, func(d linklayer.Delivery) {
		times = append(times, d.Pair.CreatedAt().Sub(last).Seconds())
		last = d.Pair.CreatedAt()
		free(d, a)
	}); err != nil {
		panic(err)
	}
	if err := eng.Register("b", "f5", 0.95, 10, func(d linklayer.Delivery) { free(d, b) }); err != nil {
		panic(err)
	}
	for len(times) < perRun {
		if !s.Step() {
			break
		}
	}
	return times
}

// CDF evaluates the empirical distribution at time t (seconds).
func (d *Fig5Data) CDF(t float64) float64 { return d.agg.CDF(t) }

// Print writes the CDF series the paper plots.
func (d *Fig5Data) Print(w io.Writer) {
	header(w, "Fig. 5 — link-pair generation time CDF (F=0.95, 2 m fibre)")
	fmt.Fprintf(w, "samples=%d  mean=%.1f ms (paper ≈10 ms)  p95=%.1f ms (paper ≈30 ms)\n",
		len(d.Samples), d.MeanMS, d.P95MS)
	fmt.Fprintf(w, "%8s  %s\n", "t (ms)", "fraction generated")
	for _, ms := range []float64{1, 2, 5, 10, 15, 20, 25, 30, 40, 50, 75, 100} {
		fmt.Fprintf(w, "%8.0f  %.3f\n", ms, d.CDF(ms/1e3))
	}
}

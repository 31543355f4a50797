package experiments

import (
	"fmt"
	"io"

	"qnp/internal/baseline"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// Fig10ABPoint is one marker of Fig. 10(a,b): the goodput of one circuit at
// one memory lifetime under one protocol.
type Fig10ABPoint struct {
	T2Star   float64
	Fidelity float64 // circuit's end-to-end target (0.9 for a, 0.8 for b)
	Oracle   bool    // true = baseline (no cutoff, oracle discard at ends)
	PairsPS  float64
	// RawPS carries the unfiltered delivery rate for runs that also track
	// goodput (Fig. 10(c)).
	RawPS    float64
	Feasible bool // routing found a plan at this lifetime
}

// Fig10ABData is the robustness-to-decoherence study.
type Fig10ABData struct {
	Points   []Fig10ABPoint
	HorizonS float64
}

// fig10ABParams is the sweep's shape.
type fig10ABParams struct {
	Horizon   sim.Duration
	Lifetimes []float64
}

type fig10ABCell struct {
	oracle bool
	t2     float64
}

var fig10ABSweep = &sweep[fig10ABParams, fig10ABCell, [2]Fig10ABPoint]{
	fig: "fig10ab",
	cells: func(p fig10ABParams) (cells []fig10ABCell) {
		for _, oracle := range []bool{false, true} {
			for _, t2 := range p.Lifetimes {
				cells = append(cells, fig10ABCell{oracle, t2})
			}
		}
		return cells
	},
	run: func(p fig10ABParams, c fig10ABCell, _ int, seed int64) [2]Fig10ABPoint {
		return fig10Run(seed, c.t2, c.oracle, p.Horizon, 0)
	},
}

// Fig10AB sweeps the electron memory lifetime (T2*) for two competing
// circuits — A0-B0 at F=0.9 and A1-B1 at F=0.8 — comparing the QNP's cutoff
// against the §5.2 baseline that discards below-threshold end-to-end pairs
// with a simulation oracle.
func Fig10AB(o Options) *Fig10ABData {
	p := fig10ABParams{Horizon: 20 * sim.Second, Lifetimes: []float64{0.2, 0.5, 1, 1.6, 3, 6, 15, 60}}
	if o.Quick {
		p = fig10ABParams{Horizon: 5 * sim.Second, Lifetimes: []float64{0.5, 1.6, 60}}
	}
	d := &Fig10ABData{HorizonS: p.Horizon.Seconds()}
	cells, pts := fig10ABSweep.Run(o, p)
	for k, c := range cells {
		for i, f := range []float64{0.9, 0.8} {
			var tp []float64
			feasible := false
			for _, r := range pts[k] {
				tp = append(tp, r[i].PairsPS)
				feasible = feasible || r[i].Feasible
			}
			d.Points = append(d.Points, Fig10ABPoint{
				T2Star: c.t2, Fidelity: f, Oracle: c.oracle,
				PairsPS: runner.Mean(tp), Feasible: feasible,
			})
		}
	}
	return d
}

// fig10Run runs the two competing circuits for the horizon and returns the
// goodput of (A0-B0 @0.9, A1-B1 @0.8). With oracle=true the circuits run
// without cutoffs and deliveries are filtered by exact fidelity; otherwise
// the cutoff protocol's deliveries count directly. msgDelay adds the
// Fig. 10(c) per-hop processing delay.
func fig10Run(seed int64, t2 float64, oracle bool, horizon, msgDelay sim.Duration) [2]Fig10ABPoint {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Params.Electron.T2 = t2

	policy := qnet.CutoffLong
	if oracle {
		policy = qnet.CutoffNone
	}
	targets := []struct {
		src, dst string
		f        float64
	}{{"A0", "B0", 0.9}, {"A1", "B1", 0.8}}
	specs := make([]qnet.CircuitSpec, len(targets))
	for i, tgt := range targets {
		specs[i] = qnet.CircuitSpec{
			ID: qnet.CircuitID(fmt.Sprintf("c%d", i)), Src: tgt.src, Dst: tgt.dst,
			Fidelity: tgt.f, Policy: policy,
			Workload: qnet.ContinuousKeep{ID: "long"},
			// Routing may not meet the target at this lifetime: record the
			// infeasibility (zero goodput) instead of failing the run.
			Optional: true,
			// The oracle baseline consults exact delivery fidelities.
			RecordFidelity: oracle,
		}
	}
	res, err := qnet.Scenario{
		Config:   cfg,
		Topology: qnet.DumbbellTopo(),
		Circuits: specs,
		Horizon:  horizon,
		// Circuits come up one at a time, the first already generating while
		// the second installs — the paper's §5.2 arrangement. The delay knob
		// applies to QNP data plane messages only: circuits are installed
		// undelayed (the paper delays "any QNP message", not the control
		// plane's one-time setup).
		Sequential:      true,
		ProcessingDelay: msgDelay,
	}.Run()
	if err != nil {
		panic(err)
	}
	var out [2]Fig10ABPoint
	for i, tgt := range targets {
		cm := res.Metrics.Circuit(qnet.CircuitID(fmt.Sprintf("c%d", i)))
		if !cm.Established {
			continue
		}
		out[i].Feasible = true
		count := cm.Delivered
		if oracle {
			filter := &baseline.Filter{Threshold: tgt.f}
			count = 0
			for _, f := range cm.Fidelities {
				if filter.AcceptFidelity(f) {
					count++
				}
			}
		}
		out[i].PairsPS = float64(count) / horizon.Seconds()
	}
	return out
}

// Print writes panels (a) and (b).
func (d *Fig10ABData) Print(w io.Writer) {
	header(w, fmt.Sprintf("Fig. 10(a,b) — goodput vs memory lifetime (%.0f s runs)", d.HorizonS))
	for _, f := range []float64{0.9, 0.8} {
		fmt.Fprintf(w, "\npanel F=%.1f circuit\n%10s %16s %18s\n", f, "T2* (s)", "cutoff (pairs/s)", "oracle (pairs/s)")
		seen := map[float64]bool{}
		for _, p := range d.Points {
			if p.Fidelity != f || seen[p.T2Star] {
				continue
			}
			seen[p.T2Star] = true
			var cut, orc float64
			for _, q := range d.Points {
				if q.Fidelity == f && q.T2Star == p.T2Star {
					if q.Oracle {
						orc = q.PairsPS
					} else {
						cut = q.PairsPS
					}
				}
			}
			fmt.Fprintf(w, "%10.2f %16.2f %18.2f\n", p.T2Star, cut, orc)
		}
	}
}

// Fig10CPoint is one marker of Fig. 10(c).
type Fig10CPoint struct {
	DelayMS  float64
	Fidelity float64
	// RawPS counts all delivered pairs; the knee appears when the TRACK
	// round trip (which parks end-node qubits) approaches the cutoff.
	RawPS float64
	// GoodPS counts only pairs whose exact fidelity at delivery still meets
	// the circuit threshold — "the delivered pairs have insufficient
	// fidelity" beyond the cutoff.
	GoodPS float64
}

// Fig10CData is the classical-message-delay study.
type Fig10CData struct {
	Points   []Fig10CPoint
	CutoffMS float64
}

// fig10CParams is the sweep's shape.
type fig10CParams struct {
	Horizon  sim.Duration
	DelaysMS []float64
}

var fig10CSweep = &sweep[fig10CParams, float64, [2]Fig10ABPoint]{
	fig:   "fig10c",
	cells: func(p fig10CParams) []float64 { return p.DelaysMS },
	run: func(p fig10CParams, ms float64, _ int, seed int64) [2]Fig10ABPoint {
		return fig10GoodputRun(seed, 1.6, sim.DurationFromSeconds(ms/1e3), p.Horizon)
	},
}

// Fig10C sweeps the per-hop classical processing delay at a fixed memory
// lifetime of ≈1.6 s and plots goodput: pairs whose exact fidelity at
// delivery still meets the circuit's threshold. Quantum operations never
// block on control messages, so goodput holds until the delay approaches
// the cutoff.
func Fig10C(o Options) *Fig10CData {
	p := fig10CParams{Horizon: 20 * sim.Second, DelaysMS: []float64{0, 1, 2, 4, 6, 9, 12, 16, 24}}
	if o.Quick {
		p = fig10CParams{Horizon: 5 * sim.Second, DelaysMS: []float64{0, 6, 16}}
	}
	d := &Fig10CData{}
	// Report the cutoff value the routing controller picks at this
	// lifetime (the paper's dashed vertical line).
	{
		cfg := qnet.DefaultConfig()
		cfg.Params.Electron.T2 = 1.6
		net := qnet.Dumbbell(cfg)
		if vc, err := net.Establish("probe", "A0", "B0", 0.9, nil); err == nil {
			d.CutoffMS = vc.Plan.Cutoff.Milliseconds()
		}
	}
	delays, pts := fig10CSweep.Run(o, p)
	for k, ms := range delays {
		for i, f := range []float64{0.9, 0.8} {
			var raw, good []float64
			for _, r := range pts[k] {
				raw = append(raw, r[i].RawPS)
				good = append(good, r[i].PairsPS)
			}
			d.Points = append(d.Points, Fig10CPoint{DelayMS: ms, Fidelity: f, RawPS: runner.Mean(raw), GoodPS: runner.Mean(good)})
		}
	}
	return d
}

// fig10GoodputRun is the cutoff protocol with an oracle *readout* (not
// discard): delivered pairs only count when their exact fidelity meets the
// threshold, which is what "delivered pairs have insufficient fidelity"
// plots in the paper.
func fig10GoodputRun(seed int64, t2 float64, msgDelay, horizon sim.Duration) [2]Fig10ABPoint {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Params.Electron.T2 = t2
	targets := []struct {
		src, dst string
		f        float64
	}{{"A0", "B0", 0.9}, {"A1", "B1", 0.8}}
	specs := make([]qnet.CircuitSpec, len(targets))
	for i, tgt := range targets {
		specs[i] = qnet.CircuitSpec{
			ID: qnet.CircuitID(fmt.Sprintf("c%d", i)), Src: tgt.src, Dst: tgt.dst,
			Fidelity: tgt.f, Policy: qnet.CutoffLong,
			Workload:       qnet.ContinuousKeep{ID: "long"},
			Optional:       true,
			RecordFidelity: true,
		}
	}
	res, err := qnet.Scenario{
		Config:          cfg,
		Topology:        qnet.DumbbellTopo(),
		Circuits:        specs,
		Horizon:         horizon,
		Sequential:      true,
		ProcessingDelay: msgDelay,
	}.Run()
	if err != nil {
		panic(err)
	}
	var out [2]Fig10ABPoint
	for i, tgt := range targets {
		cm := res.Metrics.Circuit(qnet.CircuitID(fmt.Sprintf("c%d", i)))
		if !cm.Established {
			continue
		}
		out[i].Feasible = true
		good := 0
		for _, f := range cm.Fidelities {
			if f >= tgt.f {
				good++
			}
		}
		out[i].PairsPS = float64(good) / horizon.Seconds()
		out[i].RawPS = float64(cm.Delivered) / horizon.Seconds()
	}
	return out
}

// Print writes panel (c).
func (d *Fig10CData) Print(w io.Writer) {
	header(w, "Fig. 10(c) — throughput vs classical message delay (T2*≈1.6 s)")
	fmt.Fprintf(w, "routing cutoff at this lifetime ≈ %.1f ms (paper's dashed line)\n", d.CutoffMS)
	fmt.Fprintf(w, "%12s %13s %13s %13s %13s\n", "delay (ms)",
		"F=0.9 raw/s", "F=0.9 good/s", "F=0.8 raw/s", "F=0.8 good/s")
	seen := map[float64]bool{}
	for _, p := range d.Points {
		if seen[p.DelayMS] {
			continue
		}
		seen[p.DelayMS] = true
		var r9, g9, r8, g8 float64
		for _, q := range d.Points {
			if q.DelayMS == p.DelayMS {
				if q.Fidelity == 0.9 {
					r9, g9 = q.RawPS, q.GoodPS
				} else {
					r8, g8 = q.RawPS, q.GoodPS
				}
			}
		}
		fmt.Fprintf(w, "%12.1f %13.2f %13.2f %13.2f %13.2f\n", p.DelayMS, r9, g9, r8, g8)
	}
}

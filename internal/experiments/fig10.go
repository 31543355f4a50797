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
	Feasible bool // routing found a plan at this lifetime
}

// Fig10ABData is the robustness-to-decoherence study.
type Fig10ABData struct {
	Points   []Fig10ABPoint
	HorizonS float64
}

type fig10ABCell struct {
	oracle bool
	t2     float64
}

// Fig10AB sweeps the electron memory lifetime (T2*) for two competing
// circuits — A0-B0 at F=0.9 and A1-B1 at F=0.8 — comparing the QNP's cutoff
// against the §5.2 baseline that discards below-threshold end-to-end pairs
// with a simulation oracle.
func Fig10AB(o Options) *Fig10ABData {
	horizon, lifetimes := 20*sim.Second, []float64{0.2, 0.5, 1, 1.6, 3, 6, 15, 60}
	if o.Quick {
		horizon, lifetimes = 5*sim.Second, []float64{0.5, 1.6, 60}
	}
	var cells []fig10ABCell
	for _, oracle := range []bool{false, true} {
		for _, t2 := range lifetimes {
			cells = append(cells, fig10ABCell{oracle, t2})
		}
	}
	pts := grid(o, cells, func(c fig10ABCell, _ int, seed int64) [2]fig10Count {
		return fig10Run(seed, c.t2, c.oracle, horizon, 0)
	})
	d := &Fig10ABData{HorizonS: horizon.Seconds()}
	for k, c := range cells {
		for i, f := range []float64{0.9, 0.8} {
			var tp []float64
			feasible := false
			for _, r := range pts[k] {
				n := r[i].Raw
				if c.oracle {
					n = r[i].Good
				}
				tp = append(tp, float64(n)/horizon.Seconds())
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

// fig10Count is one circuit's deliveries over one Fig. 10 run.
type fig10Count struct {
	Feasible bool // routing found a plan at this lifetime
	Raw      int  // every delivered pair
	// Good counts the deliveries the §5.2 oracle accepts: pairs whose
	// exact fidelity at delivery meets the circuit's target.
	Good int
}

// fig10Run runs the two competing circuits — A0-B0 at F=0.9 and A1-B1 at
// F=0.8 — for the horizon and counts each one's deliveries. With
// oracle=true the circuits run without cutoffs (the baseline, whose
// goodput is the Good count); otherwise they run the QNP's cutoff.
// msgDelay adds the Fig. 10(c) per-hop processing delay. Exact delivery
// fidelities are recorded either way; recording draws no randomness, so
// the event timeline is the same as without it.
func fig10Run(seed int64, t2 float64, oracle bool, horizon, msgDelay sim.Duration) [2]fig10Count {
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
			Optional:       true,
			RecordFidelity: true,
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
	var out [2]fig10Count
	for i, tgt := range targets {
		cm := res.Metrics.Circuit(qnet.CircuitID(fmt.Sprintf("c%d", i)))
		if !cm.Established {
			continue
		}
		filter := &baseline.Filter{Threshold: tgt.f}
		for _, fid := range cm.Fidelities {
			filter.AcceptFidelity(fid)
		}
		out[i] = fig10Count{Feasible: true, Raw: cm.Delivered, Good: int(filter.Accepted)}
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

// Fig10C sweeps the per-hop classical processing delay at a fixed memory
// lifetime of ≈1.6 s and plots goodput: pairs whose exact fidelity at
// delivery still meets the circuit's threshold. Quantum operations never
// block on control messages, so goodput holds until the delay approaches
// the cutoff.
func Fig10C(o Options) *Fig10CData {
	horizon, delays := 20*sim.Second, []float64{0, 1, 2, 4, 6, 9, 12, 16, 24}
	if o.Quick {
		horizon, delays = 5*sim.Second, []float64{0, 6, 16}
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
	pts := grid(o, delays, func(ms float64, _ int, seed int64) [2]fig10Count {
		return fig10Run(seed, 1.6, false, horizon, sim.DurationFromSeconds(ms/1e3))
	})
	for k, ms := range delays {
		for i, f := range []float64{0.9, 0.8} {
			var raw, good []float64
			for _, r := range pts[k] {
				raw = append(raw, float64(r[i].Raw)/horizon.Seconds())
				good = append(good, float64(r[i].Good)/horizon.Seconds())
			}
			d.Points = append(d.Points, Fig10CPoint{DelayMS: ms, Fidelity: f, RawPS: runner.Mean(raw), GoodPS: runner.Mean(good)})
		}
	}
	return d
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

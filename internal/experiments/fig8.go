package experiments

import (
	"fmt"
	"io"

	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

// Fig8Point is one marker of Fig. 8: the mean completion latency of the
// 100-pair requests carried by the A0-B0 circuit when reqCount simultaneous
// requests are spread round-robin over the scenario's circuits.
type Fig8Point struct {
	Circuits  int
	ShortCut  bool
	Fidelity  float64
	Requests  int
	LatencyS  float64
	Completed bool // false if the run hit the simulation cap (congestion collapse)
}

// Fig8Data holds the six panels (1/2/4 circuits × long/short cutoff), each
// with latency-vs-request-count series per end-to-end fidelity.
type Fig8Data struct {
	Points      []Fig8Point
	PairsPerReq int
	CapS        float64
}

// circuitSets returns the paper's three sharing scenarios.
func circuitSets(n int) [][2]string {
	switch n {
	case 1:
		return [][2]string{{"A0", "B0"}}
	case 2:
		return [][2]string{{"A0", "B0"}, {"A1", "B1"}}
	default:
		return [][2]string{{"A0", "B0"}, {"A1", "B1"}, {"A0", "B1"}, {"A1", "B0"}}
	}
}

// Fig8 reproduces the resource-sharing study of §5.1: 1–8 simultaneous
// requests across 1, 2 or 4 circuits sharing the MA-MB bottleneck, with the
// long and the short cutoff, on one-minute memories (T2* = 60 s).
func Fig8(o Options) *Fig8Data {
	pairs, capT, fids, loads := 100, 600*sim.Second, []float64{0.8, 0.9}, []int{1, 2, 3, 4, 5, 6, 7, 8}
	if o.Quick {
		pairs, capT, fids, loads = 15, 120*sim.Second, []float64{0.85}, []int{1, 4, 8}
	}
	var cells []Fig8Point
	for _, nCirc := range []int{1, 2, 4} {
		for _, short := range []bool{false, true} {
			for _, f := range fids {
				for _, load := range loads {
					cells = append(cells, Fig8Point{Circuits: nCirc, ShortCut: short, Fidelity: f, Requests: load})
				}
			}
		}
	}
	pts := grid(o, cells, func(c Fig8Point, _ int, seed int64) Fig8Point {
		return fig8Run(seed, c.Circuits, c.ShortCut, c.Fidelity, c.Requests, pairs, capT)
	})
	d := &Fig8Data{PairsPerReq: pairs, CapS: capT.Seconds()}
	for i, c := range cells {
		var ls runner.Stats
		c.Completed = true
		for _, r := range pts[i] {
			ls.Add(r.LatencyS)
			c.Completed = c.Completed && r.Completed
		}
		c.LatencyS = ls.Mean()
		d.Points = append(d.Points, c)
	}
	return d
}

func fig8Run(seed int64, nCirc int, short bool, fidelity float64, load, pairs int, capT sim.Duration) Fig8Point {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	policy := qnet.CutoffLong
	if short {
		policy = qnet.CutoffShort
	}
	// Round-robin request placement: request k goes to circuit k mod n. The
	// scenario engine submits simultaneous batches breadth-first across
	// circuits, so listing each circuit's share reproduces the global
	// round-robin submission order exactly.
	sets := circuitSets(nCirc)
	reqs := make([][]qnet.Request, len(sets))
	for k := 0; k < load; k++ {
		i := k % len(sets)
		reqs[i] = append(reqs[i], qnet.Request{
			ID: qnet.RequestID(fmt.Sprintf("r%d", k)), Type: qnet.Keep, NumPairs: pairs,
		})
	}
	specs := make([]qnet.CircuitSpec, len(sets))
	for i, ep := range sets {
		specs[i] = qnet.CircuitSpec{
			ID: qnet.CircuitID(fmt.Sprintf("c%d", i)), Src: ep[0], Dst: ep[1],
			Fidelity: fidelity, Policy: policy,
			Workload: qnet.Batch{Requests: reqs[i]},
		}
	}
	res, err := qnet.Scenario{
		Config:   cfg,
		Topology: qnet.DumbbellTopo(),
		Circuits: specs,
		Horizon:  capT,
		WaitFor:  []qnet.CircuitID{"c0"}, // measure the A0-B0 circuit
	}.Run()
	if err != nil {
		panic(err)
	}
	cm := res.Metrics.Circuit("c0")
	start := res.Metrics.Start
	var ls []float64
	for _, rm := range cm.Requests {
		if rm.Done {
			ls = append(ls, rm.CompletedAt.Sub(start).Seconds())
		} else {
			// Unfinished requests count at the cap (a conservative floor).
			ls = append(ls, capT.Seconds())
		}
	}
	return Fig8Point{LatencyS: runner.Mean(ls), Completed: cm.AllComplete()}
}

// Print writes the six panels.
func (d *Fig8Data) Print(w io.Writer) {
	header(w, fmt.Sprintf("Fig. 8 — mean A0-B0 request latency (s), %d-pair requests", d.PairsPerReq))
	for _, short := range []bool{false, true} {
		for _, nCirc := range []int{1, 2, 4} {
			cut := "long cutoff"
			if short {
				cut = "short cutoff"
			}
			fmt.Fprintf(w, "\npanel: %d circuit(s), %s\n", nCirc, cut)
			fmt.Fprintf(w, "%10s", "requests")
			fids := d.fidelities()
			for _, f := range fids {
				fmt.Fprintf(w, "  F=%.2f  ", f)
			}
			fmt.Fprintln(w)
			for _, load := range d.loads() {
				fmt.Fprintf(w, "%10d", load)
				for _, f := range fids {
					for _, p := range d.Points {
						if p.Circuits == nCirc && p.ShortCut == short && p.Fidelity == f && p.Requests == load {
							mark := " "
							if !p.Completed {
								mark = "*" // hit the simulation cap
							}
							fmt.Fprintf(w, "  %7.2f%s", p.LatencyS, mark)
						}
					}
				}
				fmt.Fprintln(w)
			}
		}
	}
	fmt.Fprintf(w, "\n(* = capped at %.0f s: quantum congestion collapse)\n", d.CapS)
}

func (d *Fig8Data) fidelities() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, p := range d.Points {
		if !seen[p.Fidelity] {
			seen[p.Fidelity] = true
			out = append(out, p.Fidelity)
		}
	}
	return out
}

func (d *Fig8Data) loads() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range d.Points {
		if !seen[p.Requests] {
			seen[p.Requests] = true
			out = append(out, p.Requests)
		}
	}
	return out
}

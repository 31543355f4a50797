package main

import (
	"fmt"

	"qnp/internal/routing"
	"qnp/internal/sim"
	"qnp/qnet"
)

// A workload is a fixed batch of scenario replicas. Replica i of a run with
// base seed s runs job i on seed runner.DeriveSeed(s, i), the seeding the
// figure it mirrors gives its replica grid, so a workload's batch is the
// figure's batch.
type workload struct {
	name string
	jobs int
	// scenario builds job j's scenario on a replica seed.
	scenario func(job int, seed int64) qnet.Scenario
}

// workloads are the benchmark's four workloads, in run order. Each mirrors a
// figure scenario exactly and stresses different layers; README.md says
// which layer metric each one is meant to move and which it must leave flat.
var workloads = []workload{
	// The paper's headline curve, where exact pair physics dominates.
	fig9Workload("fig9", qnet.PhysicsExact, 1),
	// fig9's event timelines with near-free physics, so the event loop,
	// link model and core show.
	fig9Workload("fig9-werner", qnet.PhysicsWerner, 3),
	{
		// Churning admission-controlled circuits: routing, signalling, GC
		// and teardown.
		name: "city",
		jobs: 1,
		scenario: func(_ int, seed int64) qnet.Scenario {
			return cityScenario(seed, cityQuick, churnDemand())
		},
	},
	{
		// The near-term platform: hand-built plan, zero routing calls.
		name: "nearterm",
		jobs: 20,
		scenario: func(_ int, seed int64) qnet.Scenario {
			return nearTermScenario(seed, qnet.ContinuousKeep{}, 10*sim.Hour)
		},
	},
}

// workloadByName looks a workload up.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fig9Job is one (load, congestion) cell of Fig. 9's replica grid.
type fig9Job struct {
	congested bool
	interval  float64 // seconds between 3-pair requests on A0-B0
}

// fig9Intervals are Fig. 9's offered loads at full size.
var fig9Intervals = []float64{2, 1, 0.5, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05, 0.035, 0.025}

// fig9Jobs lays the grid out in the figure's order: empty network first,
// every interval, runs replicas per cell.
func fig9Jobs(intervals []float64, runs int) []fig9Job {
	var jobs []fig9Job
	for _, congested := range []bool{false, true} {
		for _, iv := range intervals {
			for r := 0; r < runs; r++ {
				jobs = append(jobs, fig9Job{congested, iv})
			}
		}
	}
	return jobs
}

// fig9Scenario is one Fig. 9 replica: 3-pair requests on A0-B0 every
// interval, with A1-B1 idle or saturated by an open-ended request.
func fig9Scenario(seed int64, physics qnet.Physics, j fig9Job, horizon sim.Duration) qnet.Scenario {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Physics = physics
	var background qnet.Workload
	if j.congested {
		background = qnet.ContinuousKeep{ID: "bg"}
	}
	return qnet.Scenario{
		Config:   cfg,
		Topology: qnet.DumbbellTopo(),
		Circuits: []qnet.CircuitSpec{
			{ID: "main", Src: "A0", Dst: "B0", Fidelity: 0.85, Policy: qnet.CutoffShort,
				Workload: qnet.IntervalKeep{Interval: sim.DurationFromSeconds(j.interval), Pairs: 3}},
			{ID: "other", Src: "A1", Dst: "B1", Fidelity: 0.85, Policy: qnet.CutoffShort,
				Workload: background},
		},
		Horizon: horizon,
	}
}

// fig9Workload is Fig. 9 at full size (50 s horizon) on one physics engine,
// with runs replicas per grid cell.
func fig9Workload(name string, physics qnet.Physics, runs int) workload {
	jobs := fig9Jobs(fig9Intervals, runs)
	return workload{
		name: name,
		jobs: len(jobs),
		scenario: func(job int, seed int64) qnet.Scenario {
			return fig9Scenario(seed, physics, jobs[job], 50*sim.Second)
		},
	}
}

// cityParams is the city study's shape.
type cityParams struct {
	rows, cols int
	horizon    sim.Duration
	hold       sim.Duration
	circuits   int
	reqMean    sim.Duration
}

// cityQuick is `figures -fig city -quick`: one hold time, one replica.
var cityQuick = cityParams{
	rows: 10, cols: 10,
	horizon:  6 * sim.Second,
	hold:     5 * sim.Second / 2,
	circuits: 300,
	reqMean:  100 * sim.Millisecond,
}

// churnDemand is every city circuit's admission demand: 40% of the
// uncontended allocation a dumbbell A0-B0 probe is handed, the value the
// churn and city studies derive.
func churnDemand() float64 {
	cfg := qnet.DefaultConfig()
	cfg.EnforceEER = true
	dec, _, err := qnet.Dumbbell(cfg).Controller.Place(qnet.PlacementRequest{
		Src: "A0", Dst: "B0", Fidelity: 0.85, Cutoff: qnet.CutoffShort, Probe: true,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: churn demand probe: %v", err))
	}
	return 0.4 * dec.Plan.MaxEER
}

// cityScenario is one city replica: uniform arrivals over the first 60% of
// the horizon, exponential holding, Poisson single-pair requests, admission
// control and streaming metrics.
func cityScenario(seed int64, p cityParams, demand float64) qnet.Scenario {
	cfg := qnet.DefaultConfig()
	cfg.Seed = seed
	cfg.EnforceEER = true
	cfg.MetricsMode = qnet.MetricsStreaming
	return qnet.Scenario{
		Name:     "city",
		Config:   cfg,
		Topology: qnet.GridTopo(p.rows, p.cols),
		Circuits: []qnet.CircuitSpec{{
			ID:       "vc",
			Select:   qnet.RandomPairs(p.circuits),
			Fidelity: 0.85,
			Policy:   qnet.CutoffShort,
			Arrival:  qnet.Uniform(0, sim.Duration(float64(p.horizon)*0.6)),
			Holding:  qnet.Exponential(p.hold),
			MinEER:   demand,
			Workload: qnet.PoissonKeep{Mean: p.reqMean, Pairs: 1},
			Optional: true,
		}},
		Horizon: p.horizon,
	}
}

// nearTermPlan is the §5.3 hand-built plan Fig. 11 installs: link fidelity
// 0.81, a 1 s cutoff, end-to-end target 0.5 over n0-n1-n2.
func nearTermPlan(cfg qnet.Config) routing.Plan {
	const linkF = 0.81
	pairTime, ok := cfg.Link.ExpectedPairTime(cfg.Params, linkF)
	if !ok {
		panic("bench: near-term link cannot reach the hand-picked fidelity")
	}
	return routing.Plan{
		Path:             []string{"n0", "n1", "n2"},
		LinkFidelity:     linkF,
		Cutoff:           1000 * sim.Millisecond,
		LinkPairTime:     pairTime,
		MaxLPR:           1 / pairTime.Seconds(),
		EndToEndFidelity: 0.5,
	}
}

// nearTermScenario is Fig. 11's platform and plan (25 km telecom links, one
// shared communication qubit, carbon storage) driven by w for horizon.
func nearTermScenario(seed int64, w qnet.Workload, horizon sim.Duration) qnet.Scenario {
	cfg := qnet.NearTermConfig(25000)
	cfg.Seed = seed
	plan := nearTermPlan(cfg)
	return qnet.Scenario{
		Config:   cfg,
		Topology: qnet.ChainTopo(3),
		Circuits: []qnet.CircuitSpec{{
			ID: "nearterm", Plan: &plan,
			Workload:       w,
			RecordFidelity: true,
		}},
		Horizon: horizon,
	}
}

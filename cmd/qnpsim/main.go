// Command qnpsim runs an ad-hoc QNP scenario from flags: any generated
// topology (chain, dumbbell, ring, star, grid, Waxman random graph), one or
// several concurrent circuits, a pluggable workload, and a unified metrics
// summary of what the network delivered.
//
// Examples:
//
//	qnpsim -nodes 4 -fidelity 0.85 -pairs 20
//	qnpsim -topology dumbbell -src A0 -dst B1 -fidelity 0.8 -pairs 10 -cutoff short
//	qnpsim -topology grid -rows 3 -cols 3 -circuits 3 -workload continuous -horizon 10
//	qnpsim -topology star -nodes 9 -circuits 4 -workload interval -interval 0.5
//	qnpsim -topology random -nodes 10 -seed 7 -pairs 5 -replicas 20
//	qnpsim -nearterm -nodes 3 -fidelity 0.5 -pairs 5
//
// With -circuits 1 and no -src/-dst the circuit spans the topology's
// diameter; -circuits k > 1 draws k distinct random endpoint pairs.
// -replicas R fans R independent seeded replicas across a worker pool and
// reports aggregate means; -shards N spreads them over N work-stealing
// worker processes instead (-resume DIR adds a checkpoint journal), with
// bit-identical aggregates.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"qnp/internal/cli"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

func main() {
	// A process spawned as a shard worker serves its replica range and
	// exits here, before flag parsing.
	runner.MaybeWorker()

	topology := flag.String("topology", "chain", "chain, dumbbell, ring, star, grid or random")
	nodes := flag.Int("nodes", 3, "node count (chain, ring, star, random)")
	rows := flag.Int("rows", 3, "grid rows")
	cols := flag.Int("cols", 3, "grid columns")
	alpha := flag.Float64("alpha", 0.4, "Waxman link-probability scale (random topology)")
	beta := flag.Float64("beta", 0.4, "Waxman distance decay (random topology)")
	src := flag.String("src", "", "source end-node (default: a diameter endpoint of the topology)")
	dst := flag.String("dst", "", "destination end-node (default: the matching diameter endpoint)")
	circuits := flag.Int("circuits", 1, "concurrent circuits (>1 draws random endpoint pairs)")
	fidelity := flag.Float64("fidelity", 0.85, "end-to-end fidelity target")
	workload := flag.String("workload", "batch", "workload per circuit: batch, continuous, interval, poisson, onoff, measure, churn")
	pairs := flag.Int("pairs", 10, "pairs per request (batch, interval, poisson, onoff, measure)")
	interval := flag.Float64("interval", 1, "request inter-arrival seconds (interval, poisson, onoff); mean circuit-arrival offset (churn)")
	hold := flag.Float64("hold", 5, "mean circuit holding seconds (churn)")
	minEER := flag.Float64("mineer", 0, "per-circuit admission demand in pairs/s (churn; needs admission control)")
	alloc := flag.String("alloc", "count", "allocation policy: count (equal split by membership), model (model-weighted by each circuit's deliverable rate), static (frozen at MaxLPR/2)")
	paths := flag.Int("paths", 1, "k-shortest-path candidates scored per circuit (> 1 re-routes around contention the shortest path cannot absorb)")
	cutoff := flag.String("cutoff", "long", "cutoff policy: long, short, none")
	maxEER := flag.Float64("maxeer", 0, "circuit EER allocation for admission control (0 = off)")
	nearterm := flag.Bool("nearterm", false, "near-term hardware (25 km telecom links, carbon storage)")
	physics := flag.String("physics", "exact", "pair-state engine: exact (density matrices) or werner (scalar Werner-parameter fast path)")
	streaming := flag.Bool("streaming", false, "constant-memory streaming metrics: drop the per-event records and keep only the mergeable aggregates every run records (for runs too large to hold every delivery)")
	horizon := flag.Float64("horizon", 300, "max simulated seconds")
	seed := flag.Int64("seed", 1, "random seed")
	replicas := flag.Int("replicas", 1, "independent replicas (means reported when > 1)")
	workers := flag.Int("workers", 0, "replica worker pool size (0 = NumCPU)")
	shards := cli.RegisterShardFlags(flag.CommandLine)
	verbose := flag.Bool("v", false, "log every delivery (single replica only)")
	flag.Parse()

	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}

	cfg := qnet.DefaultConfig()
	if *nearterm {
		cfg = qnet.NearTermConfig(25000)
	}
	cfg.Seed = *seed
	if *maxEER > 0 || *minEER > 0 {
		cfg.EnforceEER = true
	}
	switch *alloc {
	case "count":
	case "model":
		cfg.Alloc = qnet.AllocModelWeighted
	case "static":
		cfg.Alloc = qnet.AllocStatic
	default:
		die("unknown allocation policy %q (want count, model or static)", *alloc)
	}
	if *paths < 1 {
		die("-paths must be ≥ 1 (got %d)", *paths)
	}
	if *streaming {
		cfg.MetricsMode = qnet.MetricsStreaming
	}
	var err error
	if cfg.Physics, err = cli.ParsePhysics(*physics); err != nil {
		die("%v", err)
	}

	var topo qnet.TopologySpec
	nodeCount := *nodes
	switch *topology {
	case "chain":
		if *nodes < 2 {
			die("chain needs -nodes ≥ 2 (got %d)", *nodes)
		}
		topo = qnet.ChainTopo(*nodes)
	case "dumbbell":
		topo = qnet.DumbbellTopo()
		nodeCount = 6
	case "ring":
		if *nodes < 3 {
			die("ring needs -nodes ≥ 3 (got %d)", *nodes)
		}
		topo = qnet.RingTopo(*nodes)
	case "star":
		if *nodes < 2 {
			die("star needs -nodes ≥ 2 (got %d)", *nodes)
		}
		topo = qnet.StarTopo(*nodes)
	case "grid":
		if *rows < 1 || *cols < 1 || *rows**cols < 2 {
			die("grid needs positive -rows/-cols spanning ≥ 2 nodes (got %dx%d)", *rows, *cols)
		}
		topo = qnet.GridTopo(*rows, *cols)
		nodeCount = *rows * *cols
	case "random":
		if *nodes < 2 {
			die("random needs -nodes ≥ 2 (got %d)", *nodes)
		}
		topo = qnet.WaxmanTopo(*nodes, *alpha, *beta)
	default:
		die("unknown topology %q", *topology)
	}
	// RandomPairs clamps to the pairs the topology has; mirror that here so
	// circuit IDs (and WaitFor below) match the actual expansion.
	if max := nodeCount * (nodeCount - 1) / 2; *circuits > max {
		fmt.Fprintf(os.Stderr, "note: only %d distinct endpoint pairs exist; running %d circuits\n", max, max)
		*circuits = max
	}

	var policy qnet.CutoffPolicy
	switch *cutoff {
	case "long":
		policy = qnet.CutoffLong
	case "short":
		policy = qnet.CutoffShort
	case "none":
		policy = qnet.CutoffNone
	default:
		die("unknown cutoff policy %q", *cutoff)
	}

	iv := sim.DurationFromSeconds(*interval)
	churning := *workload == "churn"
	var wl qnet.Workload
	switch *workload {
	case "batch":
		wl = qnet.KeepBatch{Count: 1, Pairs: *pairs}
	case "continuous":
		wl = qnet.ContinuousKeep{}
	case "churn":
		// Churn circuits carry an open-ended load: rate-based (policed
		// against the admission allocation) when a demand is given,
		// saturating otherwise.
		if *minEER > 0 {
			wl = qnet.MeasureStream{Rate: *minEER}
		} else {
			wl = qnet.ContinuousKeep{}
		}
	case "interval":
		wl = qnet.IntervalKeep{Interval: iv, Pairs: *pairs}
	case "poisson":
		wl = qnet.PoissonKeep{Mean: iv, Pairs: *pairs}
	case "onoff":
		wl = qnet.OnOffKeep{On: 5 * iv, Off: 5 * iv, Interval: iv, Pairs: *pairs}
	case "measure":
		wl = qnet.MeasureStream{Pairs: *pairs}
	default:
		die("unknown workload %q", *workload)
	}

	spec := qnet.CircuitSpec{
		ID: "cli", Fidelity: *fidelity, Policy: policy, MaxEER: *maxEER,
		Candidates: *paths, Workload: wl, RecordFidelity: true,
	}
	if churning {
		spec.Arrival = qnet.Exponential(iv)
		spec.Holding = qnet.Exponential(sim.DurationFromSeconds(*hold))
		spec.MinEER = *minEER
		spec.Optional = true
		spec.RecordFidelity = false
	}
	switch {
	case *circuits > 1:
		spec.Select = qnet.RandomPairs(*circuits)
		spec.Optional = true
	case *src != "" && *dst != "":
		spec.Src, spec.Dst = *src, *dst
	case *src != "" || *dst != "":
		die("-src and -dst must be given together")
	default:
		spec.Select = qnet.DiameterPair()
	}
	if *verbose && *replicas == 1 {
		delivered := 0
		spec.Head = qnet.Handlers{
			AutoConsume: true,
			OnPair: func(d qnet.Delivered) {
				delivered++
				fmt.Printf("  t=%8.3fs  circuit %-8s pair %3d  %v\n", d.At.Seconds(), d.Circuit, delivered, d.State)
			},
		}
	}

	sc := qnet.Scenario{
		Name:     "qnpsim",
		Config:   cfg,
		Topology: topo,
		Circuits: []qnet.CircuitSpec{spec},
		Horizon:  sim.DurationFromSeconds(*horizon),
	}
	// Batch workloads are finite: stop as soon as their requests complete.
	if *workload == "batch" || *workload == "measure" {
		if *circuits <= 1 {
			sc.WaitFor = []qnet.CircuitID{"cli"}
		} else {
			for j := 0; j < *circuits; j++ {
				sc.WaitFor = append(sc.WaitFor, qnet.CircuitID(fmt.Sprintf("cli-%d", j)))
			}
		}
	}

	if *replicas > 1 {
		ropts := qnet.ReplicaOptions{Replicas: *replicas, Workers: *workers, Seed: *seed, Backend: shards.Backend(*workers)}
		ms, err := sc.RunReplicated(ropts)
		if err != nil {
			log.Fatal(err)
		}
		ok := 0
		for _, m := range ms {
			if m != nil && m.Err == "" {
				ok++
			}
		}
		fmt.Printf("%d/%d replicas ran (base seed %d, per-replica seeds disjoint)\n", ok, *replicas, *seed)
		fmt.Printf("mean aggregate EER %.2f pairs/s\n", qnet.MeanAggregateEER(ms))
		if churning && ok > 0 {
			var adm, rej, tw float64
			for _, m := range ms {
				if m == nil || m.Err != "" {
					continue
				}
				adm += float64(m.Admitted)
				rej += float64(m.RejectedAtAdmission)
				tw += m.TimeWeightedEER()
			}
			fmt.Printf("churn means: %.1f admitted, %.1f rejected at admission; time-weighted EER %.2f pairs per circuit-second\n",
				adm/float64(ok), rej/float64(ok), tw/float64(ok))
		}
		for _, cm := range ms[0].Circuits {
			// Random topologies and random endpoint selectors redraw per
			// replica seed; only name endpoints when every replica agrees.
			where := fmt.Sprintf("%s→%s", cm.Src, cm.Dst)
			for _, m := range ms {
				if m == nil || m.Err != "" {
					continue
				}
				if c := m.Circuit(cm.ID); c != nil && (c.Src != cm.Src || c.Dst != cm.Dst) {
					where = "(endpoints vary per replica)"
					break
				}
			}
			fmt.Printf("  circuit %-10s %-32s mean EER %.2f pairs/s\n",
				cm.ID, where, qnet.MeanCircuitEER(ms, cm.ID))
		}
		return
	}

	res, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics
	fmt.Printf("%s: %d nodes, %d links; horizon %.0f s (ran %.3f s of virtual time)\n",
		*topology, m.Nodes, m.Links, *horizon, m.End.Sub(m.Start).Seconds())
	totalDelivered := 0
	mid := map[string]bool{}
	for _, cm := range m.Circuits {
		if !cm.Established {
			what := "NOT ESTABLISHED"
			if cm.AdmissionRejected {
				what = "REJECTED AT ADMISSION"
			}
			fmt.Printf("circuit %s %s→%s: %s (%s)\n", cm.ID, cm.Src, cm.Dst, what, cm.Err)
			continue
		}
		fmt.Printf("circuit %s %s→%s: path=%v link-fidelity=%.3f cutoff=%v LPR=%.1f/s\n",
			cm.ID, cm.Src, cm.Dst, cm.Path, cm.Plan.LinkFidelity, cm.Plan.Cutoff, cm.Plan.MaxLPR)
		if churning {
			left := "held to end of run"
			if cm.TornDownAt != 0 {
				left = fmt.Sprintf("departed t=%.3fs", cm.TornDownAt.Seconds())
			}
			fmt.Printf("  arrived t=%.3fs, established t=%.3fs, %s (lifetime %.3fs)\n",
				cm.ArrivedAt.Seconds(), cm.EstablishedAt.Seconds(), left, cm.Lifetime(m.End).Seconds())
		}
		status := "all requests complete"
		if !cm.AllComplete() {
			status = "open/incomplete requests at horizon"
		}
		fmt.Printf("  delivered %d pairs (%.2f/s), mean fidelity %.3f; %d requests, %d rejected, %d expiries; %s\n",
			cm.Delivered, cm.EER(m.Start, m.End), cm.MeanFidelity(),
			cm.Submitted, cm.Rejected, cm.Expired, status)
		totalDelivered += cm.Delivered
		for _, id := range cm.Path[1 : len(cm.Path)-1] {
			mid[id] = true
		}
	}
	var swaps, discards uint64
	for id := range mid {
		swaps += m.NodeStats[id].Swaps
		discards += m.NodeStats[id].Discards
	}
	if totalDelivered == 0 {
		log.Fatalf("no pairs delivered within %.0f simulated seconds", *horizon)
	}
	fmt.Printf("totals: %d pairs (%.2f/s aggregate); intermediate nodes: %d swaps, %d cutoff discards; classical messages: %d\n",
		m.TotalDelivered(), m.AggregateEER(), swaps, discards, m.ClassicalMessages)
	if churning {
		fmt.Printf("churn: %d admitted, %d rejected at admission; time-weighted EER %.2f pairs per circuit-second\n",
			m.Admitted, m.RejectedAtAdmission, m.TimeWeightedEER())
	}
}

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
// diameter; -circuits k > 1 draws k distinct random endpoint pairs and
// is a usage error together with -src or -dst.
// -replicas R fans R independent seeded replicas across a worker pool and
// reports aggregate means, bit-identical for any -workers count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qnp/internal/cli"
	"qnp/internal/runner"
	"qnp/internal/sim"
	"qnp/qnet"
)

func main() {
	os.Exit(qnpsimMain(os.Args[1:], os.Stdout, os.Stderr))
}

// invocation is a parsed command line: the scenario it declares and how to
// run it.
type invocation struct {
	sc       qnet.Scenario
	topology string
	horizon  float64
	churning bool
	seed     int64
	replicas int
	workers  int
	verbose  bool
}

// parse builds the invocation from args. Errors are also written to
// stderr, as the flag package writes its own.
func parse(args []string, stderr io.Writer) (invocation, error) {
	fs := flag.NewFlagSet("qnpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topology := fs.String("topology", "chain", "chain, dumbbell, ring, star, grid or random")
	nodes := fs.Int("nodes", 3, "node count (chain, ring, star, random)")
	rows := fs.Int("rows", 3, "grid rows")
	cols := fs.Int("cols", 3, "grid columns")
	alpha := fs.Float64("alpha", 0.4, "Waxman link-probability scale (random topology)")
	beta := fs.Float64("beta", 0.4, "Waxman distance decay (random topology)")
	src := fs.String("src", "", "source end-node (default: a diameter endpoint of the topology)")
	dst := fs.String("dst", "", "destination end-node (default: the matching diameter endpoint)")
	circuits := fs.Int("circuits", 1, "concurrent circuits (>1 draws random endpoint pairs; not with -src/-dst)")
	fidelity := fs.Float64("fidelity", 0.85, "end-to-end fidelity target")
	workload := fs.String("workload", "batch", "workload per circuit: batch, continuous, interval, poisson, onoff, measure, churn")
	pairs := fs.Int("pairs", 10, "pairs per request (batch, interval, poisson, onoff, measure)")
	interval := fs.Float64("interval", 1, "request inter-arrival seconds (interval, poisson, onoff); mean circuit-arrival offset (churn)")
	hold := fs.Float64("hold", 5, "mean circuit holding seconds (churn)")
	minEER := fs.Float64("mineer", 0, "per-circuit admission demand in pairs/s (churn; needs admission control)")
	alloc := fs.String("alloc", "count", "allocation policy: count (equal split by membership), model (model-weighted by each circuit's deliverable rate), static (frozen at MaxLPR/2)")
	paths := fs.Int("paths", 1, "k-shortest-path candidates scored per circuit (> 1 re-routes around contention the shortest path cannot absorb)")
	cutoff := fs.String("cutoff", "long", "cutoff policy: long, short, none")
	maxEER := fs.Float64("maxeer", 0, "circuit EER allocation for admission control (0 = off)")
	nearterm := fs.Bool("nearterm", false, "near-term hardware (25 km telecom links, carbon storage)")
	physics := fs.String("physics", "exact", "pair-state engine: exact (density matrices) or werner (scalar Werner-parameter fast path)")
	streaming := fs.Bool("streaming", false, "constant-memory streaming metrics: drop the per-event records and keep only the mergeable aggregates every run records (for runs too large to hold every delivery)")
	horizon := fs.Float64("horizon", 300, "max simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	replicas := fs.Int("replicas", 1, "independent replicas (means reported when > 1)")
	workers := fs.Int("workers", 0, "replica worker pool size (0 = NumCPU)")
	verbose := fs.Bool("v", false, "log every delivery (single replica only)")
	if err := fs.Parse(args); err != nil {
		return invocation{}, err
	}
	fail := func(format string, args ...any) (invocation, error) {
		err := fmt.Errorf(format, args...)
		fmt.Fprintln(stderr, err)
		return invocation{}, err
	}
	if fs.NArg() > 0 {
		return fail("unexpected argument %q (flags only)", fs.Arg(0))
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
		return fail("unknown allocation policy %q (want count, model or static)", *alloc)
	}
	switch {
	case *paths < 1:
		return fail("-paths must be ≥ 1 (got %d)", *paths)
	case *circuits < 1:
		return fail("-circuits must be ≥ 1 (got %d)", *circuits)
	case *replicas < 1:
		return fail("-replicas must be ≥ 1 (got %d)", *replicas)
	case *pairs < 0:
		return fail("-pairs must be ≥ 0 (got %d)", *pairs)
	case *hold < 0:
		return fail("-hold must be ≥ 0 (got %g)", *hold)
	case *minEER < 0:
		return fail("-mineer must be ≥ 0 (got %g)", *minEER)
	case *maxEER < 0:
		return fail("-maxeer must be ≥ 0 (got %g)", *maxEER)
	case *horizon <= 0:
		return fail("-horizon must be > 0 (got %g)", *horizon)
	case !(*fidelity > 0 && *fidelity <= 1): // NaN fails both
		return fail("-fidelity must be in (0, 1] (got %g)", *fidelity)
	case *verbose && *replicas > 1:
		return fail("-v logs a single run and cannot be combined with -replicas %d", *replicas)
	case (*src != "" || *dst != "") && *circuits > 1:
		return fail("-src/-dst name a single circuit and cannot be combined with -circuits %d", *circuits)
	}
	if *streaming {
		cfg.MetricsMode = qnet.MetricsStreaming
	}
	var err error
	if cfg.Physics, err = cli.ParsePhysics(*physics); err != nil {
		return fail("%v", err)
	}

	var topo qnet.TopologySpec
	nodeCount := *nodes
	switch *topology {
	case "chain":
		if *nodes < 2 {
			return fail("chain needs -nodes ≥ 2 (got %d)", *nodes)
		}
		topo = qnet.ChainTopo(*nodes)
	case "dumbbell":
		topo = qnet.DumbbellTopo()
		nodeCount = 6
	case "ring":
		if *nodes < 3 {
			return fail("ring needs -nodes ≥ 3 (got %d)", *nodes)
		}
		topo = qnet.RingTopo(*nodes)
	case "star":
		if *nodes < 2 {
			return fail("star needs -nodes ≥ 2 (got %d)", *nodes)
		}
		topo = qnet.StarTopo(*nodes)
	case "grid":
		if *rows < 1 || *cols < 1 || *rows**cols < 2 {
			return fail("grid needs positive -rows/-cols spanning ≥ 2 nodes (got %dx%d)", *rows, *cols)
		}
		topo = qnet.GridTopo(*rows, *cols)
		nodeCount = *rows * *cols
	case "random":
		if *nodes < 2 {
			return fail("random needs -nodes ≥ 2 (got %d)", *nodes)
		}
		topo = qnet.WaxmanTopo(*nodes, *alpha, *beta)
	default:
		return fail("unknown topology %q", *topology)
	}
	// RandomPairs clamps to the pairs the topology has; mirror that here so
	// circuit IDs (and WaitFor below) match the actual expansion.
	if max := nodeCount * (nodeCount - 1) / 2; *circuits > max {
		fmt.Fprintf(stderr, "note: only %d distinct endpoint pairs exist; running %d circuits\n", max, max)
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
		return fail("unknown cutoff policy %q", *cutoff)
	}

	switch *workload {
	case "interval", "poisson", "onoff", "churn":
		if *interval <= 0 {
			return fail("-interval must be > 0 for -workload %s (got %g)", *workload, *interval)
		}
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
		return fail("unknown workload %q", *workload)
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
		return fail("-src and -dst must be given together")
	default:
		spec.Select = qnet.DiameterPair()
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

	return invocation{
		sc: sc, topology: *topology, horizon: *horizon, churning: churning,
		seed: *seed, replicas: *replicas, workers: *workers, verbose: *verbose,
	}, nil
}

// replicaResult is what one replica reports back: the numbers the
// -replicas summary averages.
type replicaResult struct {
	Err             string
	EER             float64
	TimeWeightedEER float64
	Admitted        int
	Rejected        int
	Circuits        []circuitEER
}

type circuitEER struct {
	ID       qnet.CircuitID
	Src, Dst string
	EER      float64
}

// replica runs the scenario once on seed and summarises it.
func (inv invocation) replica(seed int64) replicaResult {
	sc := inv.sc
	sc.Config.Seed = seed
	res, err := sc.Run()
	if err != nil {
		return replicaResult{Err: err.Error()}
	}
	m := res.Metrics
	r := replicaResult{
		EER: m.AggregateEER(), TimeWeightedEER: m.TimeWeightedEER(),
		Admitted: m.Admitted, Rejected: m.RejectedAtAdmission,
	}
	for _, cm := range m.Circuits {
		r.Circuits = append(r.Circuits, circuitEER{cm.ID, cm.Src, cm.Dst, cm.EER(m.Start, m.End)})
	}
	return r
}

// qnpsimMain runs the command and returns its exit status.
func qnpsimMain(args []string, w, stderr io.Writer) int {
	inv, err := parse(args, stderr)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		return 2
	}
	if inv.replicas > 1 {
		err = inv.runReplicas(w, stderr)
	} else {
		err = inv.runOnce(w)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runReplicas runs the replicas on runner.Run's pool and prints their
// means in replica order. Each distinct replica error goes to stderr once, with the number
// of replicas it stopped; when no replica ran, there is nothing to average
// and the run fails.
func (inv invocation) runReplicas(w, stderr io.Writer) error {
	o := runner.Options{Workers: inv.workers, Seed: inv.seed}
	rs, err := runner.Run(o, inv.replicas, func(_ int, seed int64) replicaResult { return inv.replica(seed) })
	if err != nil {
		return err
	}
	var eer, adm, rej, tw runner.Stats
	var circuits []circuitEER
	var errs []string
	failed := map[string]int{}
	for _, r := range rs {
		if r.Err != "" {
			if failed[r.Err] == 0 {
				errs = append(errs, r.Err)
			}
			failed[r.Err]++
			continue
		}
		if eer.N() == 0 {
			circuits = r.Circuits
		}
		eer.Add(r.EER)
		adm.Add(float64(r.Admitted))
		rej.Add(float64(r.Rejected))
		tw.Add(r.TimeWeightedEER)
	}
	for _, e := range errs {
		fmt.Fprintf(stderr, "%d of %d replicas failed: %s\n", failed[e], inv.replicas, e)
	}
	if eer.N() == 0 {
		return fmt.Errorf("none of the %d replicas ran", inv.replicas)
	}
	fmt.Fprintf(w, "%d/%d replicas ran (base seed %d, per-replica seeds disjoint)\n", eer.N(), inv.replicas, inv.seed)
	fmt.Fprintf(w, "mean aggregate EER %.2f pairs/s\n", eer.Mean())
	if inv.churning {
		fmt.Fprintf(w, "churn means: %.1f admitted, %.1f rejected at admission; time-weighted EER %.2f pairs per circuit-second\n",
			adm.Mean(), rej.Mean(), tw.Mean())
	}
	for _, c := range circuits {
		// Random topologies and random endpoint selectors redraw per
		// replica seed; only name endpoints when every replica agrees.
		where := fmt.Sprintf("%s→%s", c.Src, c.Dst)
		var mean runner.Stats
		for _, r := range rs {
			for _, rc := range r.Circuits {
				if rc.ID != c.ID {
					continue
				}
				mean.Add(rc.EER)
				if rc.Src != c.Src || rc.Dst != c.Dst {
					where = "(endpoints vary per replica)"
				}
			}
		}
		fmt.Fprintf(w, "  circuit %-10s %-32s mean EER %.2f pairs/s\n", c.ID, where, mean.Mean())
	}
	return nil
}

// runOnce runs the scenario on the base seed and prints every circuit.
func (inv invocation) runOnce(w io.Writer) error {
	sc := inv.sc
	if inv.verbose {
		delivered := 0
		sc.Circuits[0].Head = qnet.Handlers{
			AutoConsume: true,
			OnPair: func(d qnet.Delivered) {
				delivered++
				fmt.Fprintf(w, "  t=%8.3fs  circuit %-8s pair %3d  %v\n", d.At.Seconds(), d.Circuit, delivered, d.State)
			},
		}
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}
	m := res.Metrics
	fmt.Fprintf(w, "%s: %d nodes, %d links; horizon %.0f s (ran %.3f s of virtual time)\n",
		inv.topology, m.Nodes, m.Links, inv.horizon, m.End.Sub(m.Start).Seconds())
	totalDelivered := 0
	mid := map[string]bool{}
	for _, cm := range m.Circuits {
		if !cm.Established {
			what := "NOT ESTABLISHED"
			if cm.AdmissionRejected {
				what = "REJECTED AT ADMISSION"
			}
			fmt.Fprintf(w, "circuit %s %s→%s: %s (%s)\n", cm.ID, cm.Src, cm.Dst, what, cm.Err)
			continue
		}
		fmt.Fprintf(w, "circuit %s %s→%s: path=%v link-fidelity=%.3f cutoff=%v LPR=%.1f/s\n",
			cm.ID, cm.Src, cm.Dst, cm.Path, cm.Plan.LinkFidelity, cm.Plan.Cutoff, cm.Plan.MaxLPR)
		if inv.churning {
			left := "held to end of run"
			if cm.TornDownAt != 0 {
				left = fmt.Sprintf("departed t=%.3fs", cm.TornDownAt.Seconds())
			}
			fmt.Fprintf(w, "  arrived t=%.3fs, established t=%.3fs, %s (lifetime %.3fs)\n",
				cm.ArrivedAt.Seconds(), cm.EstablishedAt.Seconds(), left, cm.Lifetime(m.End).Seconds())
		}
		status := "all requests complete"
		if !cm.AllComplete() {
			status = "open/incomplete requests at horizon"
		}
		fmt.Fprintf(w, "  delivered %d pairs (%.2f/s), mean fidelity %.3f; %d requests, %d rejected, %d expiries; %s\n",
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
		return fmt.Errorf("no pairs delivered within %.0f simulated seconds", inv.horizon)
	}
	fmt.Fprintf(w, "totals: %d pairs (%.2f/s aggregate); intermediate nodes: %d swaps, %d cutoff discards; classical messages: %d\n",
		m.TotalDelivered(), m.AggregateEER(), swaps, discards, m.ClassicalMessages)
	if inv.churning {
		fmt.Fprintf(w, "churn: %d admitted, %d rejected at admission; time-weighted EER %.2f pairs per circuit-second\n",
			m.Admitted, m.RejectedAtAdmission, m.TimeWeightedEER())
	}
	return nil
}

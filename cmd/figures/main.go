// Command figures regenerates the paper's evaluation tables and figures
// (§5) on this repository's simulator and prints the series as text tables,
// plus the scenario-API extensions that go beyond the paper: the topology
// sweep, star hub contention, grid/Waxman path diversity, and the EER
// admission-control saturation study.
//
// Usage:
//
//	figures -fig all            # everything, default size
//	figures -fig 8 -runs 3      # one figure
//	figures -fig 10ab -quick    # smoke-test size
//	figures -fig hub -progress  # hub contention with a progress ticker
//
// Figure IDs: tables, 5, 8, 9, 10ab, 10c, 11, topo, hub, diversity, eer,
// churn, multipath, all, and city (not in all). An unknown ID exits with
// status 2.
//
// Replicas fan out across a worker pool (-workers, default NumCPU); the
// per-replica seeding makes every figure bit-identical for any worker
// count. Ctrl-C cancels the in-flight figure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"qnp/internal/cli"
	"qnp/internal/experiments"
)

// printer is a regenerated figure.
type printer interface{ Print(io.Writer) }

// tables prints the paper's closed-form Tables 1 and 2.
type tables struct{}

func (tables) Print(w io.Writer) { experiments.WriteTables(w) }

type figure struct {
	id    string
	inAll bool
	run   func(experiments.Options) printer
}

// figures is every figure ID, in the order -fig all regenerates them. The
// city study is not in "all": it is far larger than the paper figures (a
// 225-node grid under thousands of churning circuits) and exists to
// exercise streaming metrics at a scale the full-record mode cannot hold.
var figures = []figure{
	{"tables", true, func(experiments.Options) printer { return tables{} }},
	{"5", true, func(o experiments.Options) printer { return experiments.Fig5(o) }},
	{"8", true, func(o experiments.Options) printer { return experiments.Fig8(o) }},
	{"9", true, func(o experiments.Options) printer { return experiments.Fig9(o) }},
	{"10ab", true, func(o experiments.Options) printer { return experiments.Fig10AB(o) }},
	{"10c", true, func(o experiments.Options) printer { return experiments.Fig10C(o) }},
	{"11", true, func(o experiments.Options) printer { return experiments.Fig11(o) }},
	{"topo", true, func(o experiments.Options) printer { return experiments.TopologySweep(o) }},
	{"hub", true, func(o experiments.Options) printer { return experiments.HubContention(o) }},
	{"diversity", true, func(o experiments.Options) printer { return experiments.PathDiversity(o) }},
	{"eer", true, func(o experiments.Options) printer { return experiments.EERSaturation(o) }},
	{"churn", true, func(o experiments.Options) printer { return experiments.Churn(o) }},
	{"multipath", true, func(o experiments.Options) printer { return experiments.Multipath(o) }},
	{"city", false, func(o experiments.Options) printer { return experiments.City(o) }},
}

// figureIDs lists the valid -fig values: the figures in "all", then
// "all", then the opt-in ones.
func figureIDs() string {
	var all, optIn []string
	for _, f := range figures {
		if f.inAll {
			all = append(all, f.id)
		} else {
			optIn = append(optIn, f.id)
		}
	}
	return strings.Join(append(append(all, "all"), optIn...), ", ")
}

func main() {
	os.Exit(figuresMain(os.Args[1:], os.Stdout, os.Stderr))
}

// figuresMain runs the command and returns its exit status.
func figuresMain(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: "+figureIDs()+" (city is not in all: the city-scale streaming-metrics study runs only when asked for)")
	runs := fs.Int("runs", 0, "independent runs averaged per point: at most 3, and 1 with -quick; fig 5 pools this many sample batches, uncapped (0 = default: 10, or 2 with -quick)")
	quick := fs.Bool("quick", false, "shrink workloads for a smoke run")
	seed := fs.Int64("seed", 1, "base random seed")
	workers := fs.Int("workers", 0, "replica worker pool size (0 = NumCPU)")
	progress := fs.Bool("progress", false, "print replica progress to stderr")
	physics := fs.String("physics", "exact", "pair-state engine for the validation figures (9, eer, churn, city, multipath): exact or werner; the other figures always run exact")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	var selected []figure
	for _, f := range figures {
		if f.id == *fig || (*fig == "all" && f.inAll) {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "unknown figure %q (valid: %s)\n", *fig, figureIDs())
		return 2
	}

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	if *runs < 0 {
		fmt.Fprintf(stderr, "-runs must be ≥ 0 (got %d)\n", *runs)
		return 2
	}
	if *runs > 0 {
		o.Runs = *runs
	}
	o.Seed = *seed
	o.Workers = *workers
	var err error
	if o.Physics, err = cli.ParsePhysics(*physics); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *progress {
		o.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\r%d/%d replicas", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	o.Context = ctx

	// Figures compute first, print after: a Ctrl-C mid-figure leaves the
	// aggregates holding zeros for replicas that never ran, so an
	// interrupted figure's output is discarded rather than printed.
	// Stdout carries only deterministic figure data — wall-clock timing
	// goes to stderr — so the same seed renders byte-identical stdout for
	// any worker count (the CI determinism job diffs it).
	for _, f := range selected {
		name := f.id
		if name[0] >= '0' && name[0] <= '9' {
			name = "fig" + name // the paper's numbered figures
		}
		if ctx.Err() != nil {
			fmt.Fprintf(w, "[%s skipped: interrupted]\n", name)
			continue
		}
		t0 := time.Now()
		d := f.run(o)
		if ctx.Err() != nil {
			fmt.Fprintf(w, "[%s interrupted: partial results discarded]\n", name)
			continue
		}
		d.Print(w)
		fmt.Fprintf(stderr, "[%s regenerated in %.1fs]\n", name, time.Since(t0).Seconds())
	}
	return 0
}

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
// Figure IDs: 5, 8, 9, 10ab, 10c, 11, tables, topo, hub, diversity, eer,
// churn, multipath, all.
//
// Replicas fan out across a worker pool (-workers, default NumCPU), or
// with -shards N across N re-exec'd worker processes that work-steal from
// one chunk queue (add -resume DIR for a checkpoint journal that survives
// kills); the per-replica seeding makes every figure bit-identical for any
// worker or shard count. Ctrl-C cancels the in-flight figure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"qnp/internal/cli"
	"qnp/internal/experiments"
	"qnp/internal/runner"
	"qnp/qnet"
)

func main() {
	// A process spawned as a shard worker serves its replica range and
	// exits here, before flag parsing.
	runner.MaybeWorker()

	fig := flag.String("fig", "all", "figure to regenerate: 5, 8, 9, 10ab, 10c, 11, tables, topo, hub, diversity, eer, churn, multipath, all, or city (not in all: the city-scale streaming-metrics study runs only when asked for)")
	runs := flag.Int("runs", 0, "independent simulation runs per point (0 = default)")
	quick := flag.Bool("quick", false, "shrink workloads for a smoke run")
	seed := flag.Int64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "replica worker pool size (0 = NumCPU)")
	shards := cli.RegisterShardFlags(flag.CommandLine)
	progress := flag.Bool("progress", false, "print replica progress to stderr")
	physics := flag.String("physics", "exact", "pair-state engine for the validation figures (9, eer, churn, city): exact or werner; the other figures always run exact")
	flag.Parse()

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	if *runs > 0 {
		o.Runs = *runs
	}
	o.Seed = *seed
	o.Workers = *workers
	var err error
	if o.Physics, err = cli.ParsePhysics(*physics); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.Backend = shards.Backend(*workers); o.Backend != nil {
		// Fig. 11 is a single staircase run and the tables are closed-form:
		// neither has a replica grid, so sharding cannot apply to them.
		if *fig == "11" || *fig == "tables" {
			fmt.Fprintf(os.Stderr, "note: -fig %s has no replica grid; -shards has no effect on it\n", *fig)
		}
	}
	if *progress {
		o.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d replicas", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	o.Context = ctx

	w := os.Stdout
	// Figures compute first, print after: a Ctrl-C mid-figure leaves the
	// aggregates holding zeros for replicas that never ran, so an
	// interrupted figure's output is discarded rather than printed.
	// Stdout carries only deterministic figure data — wall-clock timing
	// goes to stderr — so the same seed renders byte-identical stdout for
	// any worker or shard count (the CI sharded-equivalence job diffs it).
	run := func(name string, fn func() interface{ Print(io.Writer) }) {
		if ctx.Err() != nil {
			fmt.Fprintf(w, "[%s skipped: interrupted]\n", name)
			return
		}
		t0 := time.Now()
		d := fn()
		if ctx.Err() != nil {
			fmt.Fprintf(w, "[%s interrupted: partial results discarded]\n", name)
			return
		}
		d.Print(w)
		fmt.Fprintf(os.Stderr, "[%s regenerated in %.1fs]\n", name, time.Since(t0).Seconds())
	}
	want := func(name string) bool { return *fig == name || *fig == "all" }

	if want("tables") {
		// Tables are closed-form (no replicas), printed directly.
		if ctx.Err() == nil {
			t0 := time.Now()
			experiments.WriteTables(w)
			fmt.Fprintf(os.Stderr, "[tables regenerated in %.1fs]\n", time.Since(t0).Seconds())
		}
	}
	if want("5") {
		run("fig5", func() interface{ Print(io.Writer) } { return experiments.Fig5(o) })
	}
	if want("8") {
		run("fig8", func() interface{ Print(io.Writer) } { return experiments.Fig8(o) })
	}
	if want("9") {
		run("fig9", func() interface{ Print(io.Writer) } { return experiments.Fig9(o) })
	}
	if want("10ab") {
		run("fig10ab", func() interface{ Print(io.Writer) } { return experiments.Fig10AB(o) })
	}
	if want("10c") {
		run("fig10c", func() interface{ Print(io.Writer) } { return experiments.Fig10C(o) })
	}
	if want("11") {
		run("fig11", func() interface{ Print(io.Writer) } { return experiments.Fig11(o) })
	}
	if want("topo") {
		run("topo", func() interface{ Print(io.Writer) } { return experiments.TopologySweep(o) })
	}
	if want("hub") {
		run("hub", func() interface{ Print(io.Writer) } { return experiments.HubContention(o) })
	}
	if want("diversity") {
		run("diversity", func() interface{ Print(io.Writer) } { return experiments.PathDiversity(o) })
	}
	if want("eer") {
		run("eer", func() interface{ Print(io.Writer) } { return experiments.EERSaturation(o) })
	}
	if want("churn") {
		run("churn", func() interface{ Print(io.Writer) } { return experiments.Churn(o) })
	}
	if want("multipath") {
		run("multipath", func() interface{ Print(io.Writer) } { return experiments.Multipath(o) })
	}
	// The city study is opt-in, not part of "all": it is far larger than
	// the paper figures (a 225-node grid under thousands of churning
	// circuits) and exists to exercise streaming metrics at a scale the
	// full-record mode cannot hold.
	if *fig == "city" {
		if o.Physics == qnet.PhysicsWerner {
			// The Werner city variant regenerates the study under both
			// engines — exact first, its output discarded — so stderr can
			// report the two wall times side by side. Stdout carries the
			// Werner run's (byte-identical) table, keeping the
			// sharded-equivalence diff meaningful.
			if ctx.Err() != nil {
				fmt.Fprintf(w, "[city skipped: interrupted]\n")
				return
			}
			exactO := o
			exactO.Physics = qnet.PhysicsExact
			t0 := time.Now()
			experiments.City(exactO)
			exactS := time.Since(t0).Seconds()
			t1 := time.Now()
			d := experiments.City(o)
			wernerS := time.Since(t1).Seconds()
			if ctx.Err() != nil {
				fmt.Fprintf(w, "[city interrupted: partial results discarded]\n")
				return
			}
			d.Print(w)
			fmt.Fprintf(os.Stderr, "[city regenerated: exact %.1fs, werner %.1fs]\n", exactS, wernerS)
		} else {
			run("city", func() interface{ Print(io.Writer) } { return experiments.City(o) })
		}
	}
}

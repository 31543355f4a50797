// Command qnpbench is the repository's benchmark. It runs one of four
// workloads, each a batch of scenario replicas mirroring a paper figure,
// through the simulator's public entry points, checks the outputs, and
// prints its metrics as one JSON object on the last line of stdout:
//
//	{"correct": true, "attempted": 25, "failed": 0, "metrics": {"wall_s": {"value": 13.2, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fig9 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1        # each workload in its own process
//	bash bench/run.sh --ladder                       # per-layer microbenchmarks only
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer ones. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off.
var endToEndMetrics = []metricSpec{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_rate", "sim_s/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the traced run's metrics: exact counts, profile
// shares by layer, tracing overhead, and the microbenchmark ladder.
var perLayerMetrics = func() []metricSpec {
	specs := []metricSpec{
		{"sim.events", "count"},
		{"sim.events_per_sim_s", "1/s"},
		{"linklayer.rounds", "count"},
		{"linklayer.attempts_per_round", "count"},
		{"linklayer.rounds_aborted", "count"},
		{"core.swaps", "count"},
		{"core.cutoff_discards", "count"},
		{"core.expires", "count"},
		{"core.yield", "ratio"},
		{"netsim.messages", "count"},
		{"netsim.track_msgs", "count"},
		{"signaling.msgs", "count"},
		{"routing.placements", "count"},
		{"routing.reject_frac", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.mallocs", "count"},
	}
	for _, l := range layers {
		specs = append(specs, metricSpec{l + ".self_share", "share"}, metricSpec{l + ".cum_share", "share"})
	}
	specs = append(specs,
		metricSpec{"runtime.self_share", "share"},
		metricSpec{"trace.overhead", "ratio"},
	)
	return append(specs, ladderMetrics...)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport fills a report with every metric in specs; a metric missing
// from values makes the report incorrect.
func newReport(specs []metricSpec, values map[string]float64, attempted, failed int, stderr io.Writer) report {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			fmt.Fprintf(stderr, "qnpbench: metric %s was not measured\n", s.name)
			r.Correct = false
		}
		r.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return r
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qnpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: fig9, fig9-werner, city, nearterm, or all (each in a child process)")
	seed := fs.Int64("seed", 1, "base seed; replica i of a workload runs on runner.DeriveSeed(seed, i)")
	seconds := fs.Float64("seconds", 20, "host seconds the end-to-end metrics measure for: whole passes over the batch, at least two (--trace 1 runs one pass, its traced replay and the ladder)")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 the per-layer metrics (counts, CPU-profile shares, ladder)")
	ladderOnly := fs.Bool("ladder", false, "run only the per-layer microbenchmark ladder")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "qnpbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "qnpbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	enc := json.NewEncoder(stdout)

	if *ladderOnly {
		values, err := ladder(*seed)
		failed := 0
		if err != nil {
			fmt.Fprintf(stderr, "qnpbench: %v\n", err)
			failed = 1
		}
		return emit(enc, stderr, newReport(ladderMetrics, values, 1, failed, stderr))
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "qnpbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "qnpbench: unknown workload %q\n", *name)
		return 2
	}

	start := time.Now()
	// The end-to-end metrics take each replica's fastest of at least two
	// identical repeats. The per-layer metrics need one untraced pass: the
	// traced replay of it repeats every replica anyway.
	budget, passes := time.Duration(*seconds*float64(time.Second)), 2
	if *trace == 1 {
		budget, passes = 0, 1
	}
	m := measure(w, *seed, budget, passes)
	pass, complete := m.firstPass()
	info := map[string]any{"workload": w.name, "seed": *seed, "batch": w.jobs}
	if complete {
		info["output_digest"] = digest(pass)
	}
	var values map[string]float64
	specs := endToEndMetrics
	if *trace == 0 {
		values = m.endToEnd()
	} else {
		specs = perLayerMetrics
		values = map[string]float64{}
		if complete {
			replay, prof, err := m.traced(pass)
			m.note("profile", err)
			values = perLayer(pass, replay, prof)
		}
		lad, err := ladder(*seed)
		m.note("ladder", err)
		for k, v := range lad {
			values[k] = v
		}
	}
	for _, f := range m.failures {
		fmt.Fprintf(stderr, "qnpbench: %s\n", f)
	}
	info["host_s"] = time.Since(start).Seconds()
	if err := enc.Encode(info); err != nil {
		return 1
	}
	return emit(enc, stderr, newReport(specs, values, m.attempted, m.failed, stderr))
}

// emit prints the result line.
func emit(enc *json.Encoder, stderr io.Writer, r report) int {
	if err := enc.Encode(r); err != nil {
		fmt.Fprintf(stderr, "qnpbench: %v\n", err)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so each
// workload's peak memory is its own, and relays the children's output.
func runAll(seed int64, seconds float64, trace int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

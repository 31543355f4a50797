// Command benchdiff normalises `go test -bench -benchmem` output into the
// repository's BENCH_*.json format and compares two such files with
// benchstat-style regression thresholds. CI and developers run the same
// binary, so the gate that fails a pull request is exactly reproducible
// locally:
//
//	go test -run='^$' -bench='Fig|Topology|SwapHeavy' -benchtime=2x -benchmem . |
//	    go run ./cmd/benchdiff -parse -sha $(git rev-parse --short HEAD) -out BENCH_new.json
//	go run ./cmd/benchdiff -compare BENCH_baseline.json BENCH_new.json
//
// Compare exits 1 when ns/op or allocs/op regress by more than the
// threshold (default 15%) on any benchmark present in both files, and 2
// on a usage error such as a threshold that is not a finite number ≥ 0.
// Input the gate could not compare is an error too (exit 2): a value that
// is not a finite number, a negative ns/op, B/op or allocs/op, or a
// benchmark named twice.
// Benchmarks present only in the new file are listed as "new (no
// baseline)" without failing the gate; benchmarks that vanished from
// the new file fail it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Result is one benchmark's normalised numbers.
type Result struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op"`
	BytesOp  float64            `json:"bytes_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	SHA        string            `json:"sha,omitempty"`
	Date       string            `json:"date,omitempty"`
	GoVersion  string            `json:"go_version,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	parse := flag.Bool("parse", false, "parse `go test -bench` output from stdin into JSON")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files: -compare old.json new.json")
	sha := flag.String("sha", "", "commit SHA recorded in parsed output")
	out := flag.String("out", "", "output file for -parse (default stdout)")
	threshold := flag.Float64("threshold", 0.15, "relative regression threshold for ns/op and allocs/op")
	flag.Parse()

	switch {
	case *parse:
		if err := runParse(*sha, *out); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two files, got %d", flag.NArg()))
		}
		ok, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// normalizeName strips the -GOMAXPROCS suffix so runs from machines with
// different core counts compare by benchmark identity.
func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseBench reads `go test -bench` text and returns the normalised results.
// It rejects what the gate could not compare: a value that is not a
// finite number, a negative ns/op, B/op or allocs/op, a unit given twice
// on one line, a benchmark named twice (after normalizeName) and a line
// that is not UTF-8, which JSON could not carry unchanged.
func parseBench(r *bufio.Scanner) (map[string]Result, error) {
	results := make(map[string]Result)
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if !utf8.ValidString(line) {
			return nil, fmt.Errorf("line %q: not valid UTF-8", line)
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		name := normalizeName(fields[0])
		if _, dup := results[name]; dup {
			return nil, fmt.Errorf("line %q: benchmark %s already reported", line, name)
		}
		res := Result{Metrics: map[string]float64{}}
		seen := map[string]bool{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("line %q: value %q is not a finite number", line, fields[i])
			}
			unit := fields[i+1]
			if seen[unit] {
				return nil, fmt.Errorf("line %q: %s given twice", line, unit)
			}
			seen[unit] = true
			if v < 0 && (unit == "ns/op" || unit == "B/op" || unit == "allocs/op") {
				return nil, fmt.Errorf("line %q: negative %s", line, unit)
			}
			switch unit {
			case "ns/op":
				res.NsOp = v
			case "allocs/op":
				res.AllocsOp = v
			case "B/op":
				res.BytesOp = v
			default:
				res.Metrics[unit] = v
			}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		results[name] = res
	}
	return results, r.Err()
}

func runParse(sha, out string) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	results, err := parseBench(sc)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no Benchmark lines found on stdin")
	}
	f := File{
		SHA:        sha,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Benchmarks: results,
	}
	data, err := encode(f)
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// encode renders f as a BENCH_*.json file.
func encode(f File) ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	return append(data, '\n'), err
}

// load reads a BENCH_*.json file. Like parseBench it rejects a negative
// ns/op, B/op or allocs/op (JSON has no NaN or ±Inf), and like parseBench
// it leaves a benchmark without metrics with nil Metrics.
func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	var negative []string
	for name, r := range f.Benchmarks {
		if r.NsOp < 0 || r.BytesOp < 0 || r.AllocsOp < 0 {
			negative = append(negative, name)
		}
		if r.Metrics != nil && len(r.Metrics) == 0 {
			r.Metrics = nil
			f.Benchmarks[name] = r
		}
	}
	sort.Strings(negative)
	if len(negative) > 0 {
		return File{}, fmt.Errorf("%s: negative ns_op, bytes_op or allocs_op in %s", path, strings.Join(negative, ", "))
	}
	return f, nil
}

// runCompare prints a delta table and reports whether the new results stay
// within the threshold on every benchmark both files share. A threshold
// that is negative, infinite or NaN is an error: NaN and +Inf would pass
// every regression, since no ratio exceeds them.
func runCompare(oldPath, newPath string, threshold float64) (bool, error) {
	if !(threshold >= 0) || math.IsInf(threshold, 1) {
		return false, fmt.Errorf("-threshold must be a finite number ≥ 0 (got %g)", threshold)
	}
	oldF, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := load(newPath)
	if err != nil {
		return false, err
	}
	var names, missing []string
	ok := true
	for name := range oldF.Benchmarks {
		if _, present := newF.Benchmarks[name]; present {
			names = append(names, name)
		} else {
			// A benchmark that vanished is a failure, not a warning: a
			// crashed or renamed bench must not slip past the gate green.
			missing = append(missing, name)
			ok = false
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("FAIL  %-32s missing from %s\n", name, newPath)
	}
	// Benchmarks present only in the new run are reported, not gated:
	// freshly added benches have no baseline to regress against, but
	// listing them keeps the reviewer's cue to check one in visible —
	// silently ignoring them is how baselines go stale.
	var fresh []string
	for name := range newF.Benchmarks {
		if _, present := oldF.Benchmarks[name]; !present {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		n := newF.Benchmarks[name]
		fmt.Printf("new   %-32s ns/op %14.0f                             allocs/op %10.0f   (no baseline in %s)\n",
			name, n.NsOp, n.AllocsOp, oldPath)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	for _, name := range names {
		o, n := oldF.Benchmarks[name], newF.Benchmarks[name]
		nsBad := exceeds(o.NsOp, n.NsOp, threshold)
		allocBad := exceeds(o.AllocsOp, n.AllocsOp, threshold)
		status := "ok  "
		if nsBad || allocBad {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%s  %-32s ns/op %14.0f -> %14.0f (%+6.1f%%)   allocs/op %10.0f -> %10.0f (%+6.1f%%)\n",
			status, name, o.NsOp, n.NsOp, delta(o.NsOp, n.NsOp),
			o.AllocsOp, n.AllocsOp, delta(o.AllocsOp, n.AllocsOp))
	}
	if !ok {
		fmt.Printf("\nregression beyond %.0f%% threshold vs %s\n", threshold*100, oldPath)
	}
	return ok, nil
}

// exceeds reports whether new regresses past the threshold. A zero baseline
// is a hard contract (a benchmark that reached 0 allocs/op must stay there),
// so any increase from 0 fails regardless of the relative threshold.
func exceeds(old, new, threshold float64) bool {
	if old <= 0 {
		return new > 0
	}
	return new > old*(1+threshold)
}

func delta(old, new float64) float64 {
	if old <= 0 {
		return 0
	}
	return (new - old) / old * 100
}

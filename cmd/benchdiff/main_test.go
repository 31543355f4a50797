package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name string, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureCompare runs runCompare with stdout captured.
func captureCompare(t *testing.T, oldPath, newPath string, threshold float64) (bool, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	ok, cmpErr := runCompare(oldPath, newPath, threshold)
	os.Stdout = saved
	w.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if cmpErr != nil {
		t.Fatalf("runCompare: %v", cmpErr)
	}
	return ok, sb.String()
}

// TestCompareReportsNewBenches: a benchmark present only in the new run
// must be listed as "new ... (no baseline ...)" without failing the gate,
// while regressions on shared benches still fail.
func TestCompareReportsNewBenches(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", File{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsOp: 100, AllocsOp: 10},
	}})
	newPath := writeFile(t, dir, "new.json", File{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsOp: 105, AllocsOp: 10},
		"BenchmarkFresh":  {NsOp: 42, AllocsOp: 1},
	}})
	ok, out := captureCompare(t, oldPath, newPath, 0.15)
	if !ok {
		t.Errorf("compare failed; output:\n%s", out)
	}
	if !strings.Contains(out, "new ") || !strings.Contains(out, "BenchmarkFresh") || !strings.Contains(out, "no baseline") {
		t.Errorf("new-only bench not reported:\n%s", out)
	}
	if !strings.Contains(out, "ok    BenchmarkShared") {
		t.Errorf("shared bench line missing:\n%s", out)
	}
}

// TestCompareStillFailsOnMissingAndRegressed: vanished benches and
// threshold breaches keep failing the gate with the new-bench pass in
// place.
func TestCompareStillFailsOnMissingAndRegressed(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", File{Benchmarks: map[string]Result{
		"BenchmarkGone":   {NsOp: 50, AllocsOp: 5},
		"BenchmarkShared": {NsOp: 100, AllocsOp: 10},
	}})
	newPath := writeFile(t, dir, "new.json", File{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsOp: 200, AllocsOp: 10},
		"BenchmarkFresh":  {NsOp: 42, AllocsOp: 1},
	}})
	ok, out := captureCompare(t, oldPath, newPath, 0.15)
	if ok {
		t.Errorf("compare passed despite missing + regressed benches:\n%s", out)
	}
	if !strings.Contains(out, "missing from") {
		t.Errorf("vanished bench not flagged:\n%s", out)
	}
	if !strings.Contains(out, "FAIL  BenchmarkShared") {
		t.Errorf("regression not flagged:\n%s", out)
	}
}

// TestCompareRejectsBadThreshold: a threshold no ratio can exceed (NaN,
// +Inf) would turn the relative gate off, and a negative one fails every
// bench; each is an error (exit 2), raised before any file is read.
func TestCompareRejectsBadThreshold(t *testing.T) {
	dir := t.TempDir()
	f := File{Benchmarks: map[string]Result{"BenchmarkShared": {NsOp: 100, AllocsOp: 10}}}
	oldPath := writeFile(t, dir, "old.json", f)
	f.Benchmarks["BenchmarkShared"] = Result{NsOp: 1000, AllocsOp: 100}
	newPath := writeFile(t, dir, "new.json", f)
	for _, threshold := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		ok, err := runCompare(oldPath, newPath, threshold)
		if err == nil || !strings.Contains(err.Error(), "-threshold must be a finite number ≥ 0") {
			t.Errorf("threshold %g: ok=%v err=%v, want the threshold error", threshold, ok, err)
		}
	}
	if ok, out := captureCompare(t, oldPath, newPath, 0); ok {
		t.Errorf("threshold 0 passed a tenfold regression:\n%s", out)
	}
}

func parseString(s string) (map[string]Result, error) {
	return parseBench(bufio.NewScanner(strings.NewReader(s)))
}

// TestParseBenchRejectsUngateableInput: each input the gate could not
// compare fails with an error naming its line, instead of a negative or
// NaN figure reaching the comparison, or a repeated name silently keeping
// its last line.
func TestParseBenchRejectsUngateableInput(t *testing.T) {
	for _, tc := range []struct{ in, err string }{
		{"BenchmarkX-2 10 -5 ns/op -1 allocs/op\n", "negative ns/op"},
		{"BenchmarkX-2 10 5 ns/op -1 allocs/op\n", "negative allocs/op"},
		{"BenchmarkX-2 10 5 ns/op -8 B/op\n", "negative B/op"},
		{"BenchmarkX-2 10 NaN ns/op\n", `value "NaN" is not a finite number`},
		{"BenchmarkX-2 10 5 ns/op +Inf MB/s\n", `value "+Inf" is not a finite number`},
		{"BenchmarkX-2 10 five ns/op\n", `value "five" is not a finite number`},
		{"BenchmarkX-2 10 100 ns/op\nBenchmarkX-2 10 900 ns/op\n", "benchmark BenchmarkX already reported"},
		{"BenchmarkX-2 10 100 ns/op\nBenchmarkX-4 10 900 ns/op\n", "benchmark BenchmarkX already reported"},
		{"BenchmarkX-2 10 100 ns/op 200 ns/op\n", "ns/op given twice"},
		{"BenchmarkX\xff-2 10 100 ns/op\n", "not valid UTF-8"},
	} {
		res, err := parseString(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.err) || !strings.Contains(err.Error(), "line ") {
			t.Errorf("%q: results %v, err %v; want a line error containing %q", tc.in, res, err, tc.err)
		}
	}
	res, err := parseString("goos: linux\nBenchmarkX-2 10 100 ns/op 8 B/op 1 allocs/op 2.5 MB/s\nBenchmarkY-2 5 0 ns/op\nPASS\n")
	want := map[string]Result{
		"BenchmarkX": {NsOp: 100, BytesOp: 8, AllocsOp: 1, Metrics: map[string]float64{"MB/s": 2.5}},
		"BenchmarkY": {},
	}
	if err != nil || !reflect.DeepEqual(res, want) {
		t.Errorf("valid input: results %v, err %v; want %v", res, err, want)
	}
}

// TestLoadRejectsNegative: a BENCH_*.json file with a negative figure is
// an error, as it is on the text path.
func TestLoadRejectsNegative(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "neg.json", File{Benchmarks: map[string]Result{
		"BenchmarkB": {NsOp: 100, AllocsOp: -1},
		"BenchmarkA": {NsOp: -5},
		"BenchmarkC": {NsOp: 5},
	}})
	if _, err := load(path); err == nil || !strings.Contains(err.Error(), "BenchmarkA, BenchmarkB") {
		t.Errorf("err = %v, want one naming BenchmarkA, BenchmarkB", err)
	}
}

// roundTrip encodes f as runParse does, writes it and loads it back.
func roundTrip(t *testing.T, f File) File {
	data, err := encode(f)
	if err != nil {
		t.Fatalf("encode %+v: %v", f, err)
	}
	path := filepath.Join(t.TempDir(), "f.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := load(path)
	if err != nil {
		t.Fatalf("load of encoded %+v: %v\n%s", f, err, data)
	}
	return g
}

// FuzzParseBench: parseBench never panics, and whatever it accepts
// round-trips through runParse's encoding and load unchanged.
func FuzzParseBench(f *testing.F) {
	f.Add([]byte("BenchmarkX-2 10 100 ns/op 8 B/op 1 allocs/op\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		results, err := parseBench(sc)
		if err != nil {
			return
		}
		want := File{SHA: "abc", Benchmarks: results}
		if got := roundTrip(t, want); !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the results:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzLoad: load never panics, and a file it accepts re-encodes and
// loads back to the same File.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"sha":"abc","benchmarks":{"BenchmarkX":{"ns_op":100,"allocs_op":1,"bytes_op":8}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := load(path)
		if err != nil {
			return
		}
		if got := roundTrip(t, want); !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the file:\n got %+v\nwant %+v", got, want)
		}
	})
}

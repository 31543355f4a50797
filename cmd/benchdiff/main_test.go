package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
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

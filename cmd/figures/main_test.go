package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldens are argument lists whose stdout is pinned in a checked-in file:
// every figure in "all" at quick size, the city study (not in "all"), and
// a figure averaging three replicas per cell, so the grouping of replicas
// by cell is pinned as well as each replica's seed.
var goldens = []struct{ args, file string }{
	{"-fig all -quick -seed 7", "../../testdata/figures_all_quick_seed7.txt"},
	{"-fig city -quick -seed 5", "testdata/city-quick-seed5.txt"},
	{"-fig eer -runs 3 -seed 1", "testdata/eer-runs3-seed1.txt"},
}

func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.args, func(t *testing.T) {
			want, err := os.ReadFile(g.file)
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := figuresMain(strings.Fields(g.args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit status %d; stderr:\n%s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", g.file, got, want)
			}
		})
	}
}

// An unknown -fig value must fail loudly with the valid IDs, not print
// nothing and exit 0.
func TestUnknownFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := figuresMain([]string{"-fig", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want empty", stdout.String())
	}
	if want := "(valid: " + figureIDs() + ")"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
}

// The -fig help and the valid-ID list come from the one figure table.
func TestFigureIDs(t *testing.T) {
	const want = "tables, 5, 8, 9, 10ab, 10c, 11, topo, hub, diversity, eer, churn, multipath, all, city"
	if got := figureIDs(); got != want {
		t.Errorf("figureIDs() = %q, want %q", got, want)
	}
	var stderr bytes.Buffer
	if code := figuresMain([]string{"-h"}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Errorf("-h exit status %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("-h output does not list the figure IDs:\n%s", stderr.String())
	}
}

func TestTablesFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := figuresMain([]string{"-fig", "tables"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d; stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1") || !strings.Contains(stdout.String(), "Table 2") {
		t.Errorf("stdout missing the tables:\n%s", stdout.String())
	}
}

// A negative -runs is a usage error, not a silent fall-back to the
// default replica count.
func TestNegativeRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := figuresMain([]string{"-fig", "tables", "-runs", "-4"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want empty", stdout.String())
	}
	if want := "-runs must be ≥ 0 (got -4)"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
}
